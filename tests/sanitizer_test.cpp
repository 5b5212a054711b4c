// Collective-correctness sanitizer: injected faults must raise
// CollectiveMismatchError naming both world ranks and the divergent
// sequence numbers -- and must do so at the collective's entry, long
// before any deadlock timeout. Clean runs (including wildcard receives
// and a full sorting pipeline) must stay silent.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "mpisim/mpisim.hpp"
#include "sort/checks.hpp"
#include "sort/hypercube_qs.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using mpisim::CollectiveMismatchError;
using mpisim::Datatype;

mpisim::Runtime::Options SanitizedOpts(int p) {
  mpisim::Runtime::Options o;
  o.num_ranks = p;
  o.sanitize_collectives = true;
  // Short enough that a *missed* fault fails the test quickly as a
  // DeadlockError instead of wedging the suite; every injected fault
  // must be caught at collective entry, well before this fires.
  o.deadlock_timeout = std::chrono::milliseconds(5000);
  return o;
}

/// Runs `rank_main` on p sanitized ranks and returns the mismatch it must
/// raise.
CollectiveMismatchError ExpectMismatch(
    int p, const std::function<void(mpisim::Comm&)>& rank_main) {
  mpisim::Runtime rt(SanitizedOpts(p));
  try {
    rt.Run(rank_main);
  } catch (const CollectiveMismatchError& e) {
    return e;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected CollectiveMismatchError, got: " << e.what();
    return CollectiveMismatchError("wrong type", -1, -1, -1, -1);
  }
  ADD_FAILURE() << "expected CollectiveMismatchError, got clean run";
  return CollectiveMismatchError("no error", -1, -1, -1, -1);
}

bool PairContains(const CollectiveMismatchError& e, int rank) {
  return e.rank_a() == rank || e.rank_b() == rank;
}

TEST(Sanitizer, WrongRootBcastCaught) {
  const auto e = ExpectMismatch(4, [](mpisim::Comm& world) {
    mpisim::Barrier(world);  // seq 0: matches everywhere
    double x = world.Rank() == 0 ? 42.0 : 0.0;
    // Fault: rank 1 believes the broadcast is rooted at itself.
    const int root = world.Rank() == 1 ? 1 : 0;
    mpisim::Bcast(&x, 1, Datatype::kFloat64, root, world);
  });
  EXPECT_TRUE(PairContains(e, 1)) << e.what();
  EXPECT_EQ(e.seq_a(), 1) << e.what();
  EXPECT_EQ(e.seq_b(), 1) << e.what();
  EXPECT_NE(std::string(e.what()).find("Bcast"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("root"), std::string::npos);
}

TEST(Sanitizer, SkippedBarrierCaught) {
  const auto e = ExpectMismatch(4, [](mpisim::Comm& world) {
    mpisim::Barrier(world);  // seq 0: matches everywhere
    // Fault: rank 1 skips the second barrier, so its next collective
    // lands on the sequence number where everyone else placed Barrier.
    if (world.Rank() != 1) mpisim::Barrier(world);
    double x = 0.0;
    mpisim::Bcast(&x, 1, Datatype::kFloat64, 0, world);
  });
  EXPECT_TRUE(PairContains(e, 1)) << e.what();
  EXPECT_EQ(e.seq_a(), 1) << e.what();
  EXPECT_EQ(e.seq_b(), 1) << e.what();
  EXPECT_NE(std::string(e.what()).find("Barrier"), std::string::npos);
}

TEST(Sanitizer, TruncatedAlltoallvCaught) {
  const auto e = ExpectMismatch(4, [](mpisim::Comm& world) {
    const int p = world.Size();
    std::vector<double> send(static_cast<std::size_t>(2 * p), 1.0);
    std::vector<double> recv(static_cast<std::size_t>(2 * p), 0.0);
    std::vector<int> sendcounts(static_cast<std::size_t>(p), 2);
    std::vector<int> recvcounts(static_cast<std::size_t>(p), 2);
    std::vector<int> displs(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = 2 * i;
    // Fault: rank 1 truncates its payload for rank 2; rank 2 still
    // expects the full two elements from rank 1.
    if (world.Rank() == 1) sendcounts[2] = 1;
    mpisim::Alltoallv(send.data(), sendcounts, displs, Datatype::kFloat64,
                      recv.data(), recvcounts, displs, world);
  });
  EXPECT_TRUE(PairContains(e, 1)) << e.what();
  EXPECT_TRUE(PairContains(e, 2)) << e.what();
  EXPECT_EQ(e.seq_a(), 0) << e.what();
  EXPECT_EQ(e.seq_b(), 0) << e.what();
  EXPECT_NE(std::string(e.what()).find("Alltoallv"), std::string::npos);
}

TEST(Sanitizer, RbcWrongRootCaught) {
  // Same fault through the RBC layer: the hand-rolled binomial schedule
  // is registered as one logical collective, so the intent check fires
  // at entry even though no individual send is inspected.
  const auto e = ExpectMismatch(4, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Barrier(rw);
    double x = rw.Rank() == 0 ? 7.0 : 0.0;
    const int root = rw.Rank() == 1 ? 1 : 0;
    rbc::Bcast(&x, 1, Datatype::kFloat64, root, rw);
  });
  EXPECT_TRUE(PairContains(e, 1)) << e.what();
  EXPECT_EQ(e.seq_a(), 1) << e.what();
  EXPECT_EQ(e.seq_b(), 1) << e.what();
  EXPECT_NE(std::string(e.what()).find("rbc comm"), std::string::npos);
}

TEST(Sanitizer, RbcScanAgainstScanWithTotalCaught) {
  // One member takes the distance-doubling Iscan while its peers take the
  // up-sweep/down-sweep, on the same range and tag: the two schedules
  // would deadlock; the ledger names both kinds at entry instead.
  const auto t0 = std::chrono::steady_clock::now();
  const auto e = ExpectMismatch(4, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    constexpr int kTag = rbc::RBC_ISCAN_WITH_TOTAL_TAG;
    const std::int64_t mine = rw.Rank() + 1;
    std::int64_t incl = 0, total = 0;
    rbc::Request req;
    if (rw.Rank() == 2) {
      rbc::Iscan(&mine, &incl, 1, Datatype::kInt64, mpisim::ReduceOp::kSum,
                 rw, &req, kTag);
    } else {
      rbc::IscanWithTotal(&mine, &incl, &total, 1, Datatype::kInt64,
                          mpisim::ReduceOp::kSum, rw, &req, kTag);
    }
    rbc::Wait(&req);
  });
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(5000));
  EXPECT_TRUE(PairContains(e, 2)) << e.what();
  EXPECT_EQ(e.seq_a(), 0) << e.what();
  EXPECT_EQ(e.seq_b(), 0) << e.what();
  const std::string what = e.what();
  EXPECT_NE(what.find("different collective operations"), std::string::npos)
      << what;
  EXPECT_NE(what.find("IScanWithTotal tag="), std::string::npos) << what;
  EXPECT_NE(what.find("IScan tag="), std::string::npos) << what;
}

TEST(Sanitizer, RbcScanWithTotalRiderMismatchCaught) {
  // One member hangs a rider on the up-sweep/down-sweep and its peers do
  // not: their messages would differ in length. The record carries the
  // rider's count and element size, so the ledger names it at entry.
  const auto t0 = std::chrono::steady_clock::now();
  const auto e = ExpectMismatch(4, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    const std::int64_t mine = rw.Rank() + 1;
    std::int64_t incl = 0, total = 0;
    mpisim::PairDD cand{1.0 * rw.Rank(), 0.0};
    rbc::ScanRider rider;
    if (rw.Rank() == 1) {
      rider = {&cand, &cand, 1, Datatype::kPairDoubleDouble,
               mpisim::ReduceOp::kMaxPairFirst};
    }
    rbc::Request req;
    rbc::IscanWithTotal(&mine, &incl, &total, 1, Datatype::kInt64,
                        mpisim::ReduceOp::kSum, rw, &req,
                        rbc::RBC_ISCAN_WITH_TOTAL_TAG, rider);
    rbc::Wait(&req);
  });
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(5000));
  EXPECT_TRUE(PairContains(e, 1)) << e.what();
  EXPECT_EQ(e.seq_a(), 0) << e.what();
  EXPECT_EQ(e.seq_b(), 0) << e.what();
  const std::string what = e.what();
  EXPECT_NE(what.find("different rider blocks"), std::string::npos) << what;
  EXPECT_NE(what.find("IScanWithTotal tag="), std::string::npos) << what;
  EXPECT_NE(what.find("rider_count=1 rider_dtype_size=16"), std::string::npos)
      << what;
}

TEST(Sanitizer, WildcardRecvNoFalsePositive) {
  // kAnySource receives interleaved with collectives: the sanitizer keys
  // on collective intent, not message arrival order, so the wobble in
  // wildcard match order must not trip it (see sanitizer.hpp design
  // notes on the out-of-scope O(alpha) vtime wobble).
  mpisim::Runtime rt(SanitizedOpts(4));
  rt.Run([](mpisim::Comm& world) {
    const int p = world.Size();
    if (world.Rank() != 0) {
      const double v = world.Rank();
      mpisim::Send(&v, 1, Datatype::kFloat64, 0, 5, world);
    } else {
      double sum = 0.0;
      for (int i = 1; i < p; ++i) {
        double v = 0.0;
        mpisim::Recv(&v, 1, Datatype::kFloat64, mpisim::kAnySource, 5, world);
        sum += v;
      }
      EXPECT_DOUBLE_EQ(sum, 1.0 + 2.0 + 3.0);
    }
    mpisim::Barrier(world);
    double x = 1.0, total = 0.0;
    mpisim::Allreduce(&x, &total, 1, Datatype::kFloat64,
                      mpisim::ReduceOp::kSum, world);
    EXPECT_DOUBLE_EQ(total, p);
  });
}

TEST(Sanitizer, RbcWildcardRecvNoFalsePositive) {
  mpisim::Runtime rt(SanitizedOpts(4));
  rt.Run([](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    if (rw.Rank() != 0) {
      const double v = rw.Rank();
      rbc::Send(&v, 1, Datatype::kFloat64, 0, 9, rw);
    } else {
      for (int i = 1; i < rw.Size(); ++i) {
        double v = 0.0;
        rbc::Recv(&v, 1, Datatype::kFloat64, rbc::kAnySource, 9, rw);
      }
    }
    rbc::Barrier(rw);
  });
}

TEST(Sanitizer, SanitizedSortPipelineRuns) {
  // A whole sorting pipeline (splits, hand-rolled collectives, wildcard
  // probes) under the sanitizer: silent, and still correct.
  mpisim::Runtime rt(SanitizedOpts(8));
  rt.Run([](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(jsort::InputKind::kUniform,
                                      world.Rank(), world.Size(), 64, 99);
    auto tr = jsort::MakeRbcTransport(rw);
    const auto out = jsort::HypercubeQuicksort(tr, std::move(input));
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

TEST(Sanitizer, LedgerResetBetweenRuns) {
  // A run that aborts mid-sequence leaves members at divergent ledger
  // positions (rank 0 recorded one op, the others two). The next Run on
  // the same Runtime must start from a fresh ledger; comparing against
  // the failed run's leftovers would flag this clean run as a mismatch.
  mpisim::Runtime rt(SanitizedOpts(4));
  try {
    rt.Run([](mpisim::Comm& world) {
      mpisim::Barrier(world);
      if (world.Rank() == 0) throw mpisim::Error("injected failure");
      double x = 0.0;
      mpisim::Bcast(&x, 1, Datatype::kFloat64, 0, world);
    });
    FAIL() << "expected the injected failure to re-throw";
  } catch (const CollectiveMismatchError& e) {
    FAIL() << "unexpected mismatch: " << e.what();
  } catch (const mpisim::Error&) {
  }
  rt.Run([](mpisim::Comm& world) {
    mpisim::Barrier(world);
    mpisim::Barrier(world);
  });
}

TEST(Sanitizer, EnvOverrideEnablesAndDisables) {
  const char* old = std::getenv("MPISIM_SANITIZE");
  const std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;

  setenv("MPISIM_SANITIZE", "1", 1);
  {
    mpisim::RuntimeConfig opts;
    opts.num_ranks = 2;
    mpisim::Runtime rt(opts);
    EXPECT_TRUE(rt.options().sanitize_collectives);
  }
  setenv("MPISIM_SANITIZE", "0", 1);
  {
    mpisim::RuntimeConfig opts;
    opts.num_ranks = 2;
    opts.sanitize_collectives = true;  // env wins over the literal
    mpisim::Runtime rt(opts);
    EXPECT_FALSE(rt.options().sanitize_collectives);
  }

  if (had) {
    setenv("MPISIM_SANITIZE", saved.c_str(), 1);
  } else {
    unsetenv("MPISIM_SANITIZE");
  }
}

}  // namespace
