// Stress and failure-injection tests: randomized point-to-point traffic,
// deep communicator churn, concurrent collective storms, and sorting under
// randomized configurations -- the property sweeps backing the "no
// interference, no leaks, always sorted" claims.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sort/checks.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using mpisim::Comm;
using mpisim::Datatype;
using testutil::RunRanks;

TEST(Stress, RandomizedAllToAllTrafficIsLossless) {
  // Every rank sends a random number of random-sized messages to random
  // peers, then all are drained by count; checksums must match.
  constexpr int kP = 8;
  constexpr int kRounds = 30;
  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = kP});
  rt.Run([](Comm& world) {
    std::mt19937_64 rng(1234 + world.Rank());
    std::uniform_int_distribution<int> peer_d(0, kP - 1);
    std::uniform_int_distribution<int> len_d(0, 64);

    // Decide the traffic matrix deterministically on every rank: sender r
    // sends round i to peer P(r, i) a message of L(r, i) int64s.
    auto peer_of = [](int sender, int round) {
      std::mt19937_64 g(sender * 1000003 + round);
      return static_cast<int>(g() % kP);
    };
    auto len_of = [](int sender, int round) {
      std::mt19937_64 g(sender * 7777777 + round + 13);
      return static_cast<int>(g() % 65);
    };

    std::int64_t sent_checksum = 0;
    for (int i = 0; i < kRounds; ++i) {
      const int peer = peer_of(world.Rank(), i);
      const int len = len_of(world.Rank(), i);
      std::vector<std::int64_t> msg(static_cast<std::size_t>(len));
      for (auto& v : msg) {
        v = static_cast<std::int64_t>(rng() % 1000);
        sent_checksum += v;
      }
      mpisim::Send(msg.data(), len, Datatype::kInt64, peer, /*tag=*/i,
                   world);
    }
    // Expected incoming: every (sender, round) pair that targets me.
    std::int64_t recv_checksum = 0;
    for (int sender = 0; sender < kP; ++sender) {
      for (int i = 0; i < kRounds; ++i) {
        if (peer_of(sender, i) != world.Rank()) continue;
        const int len = len_of(sender, i);
        std::vector<std::int64_t> msg(static_cast<std::size_t>(len));
        mpisim::Recv(msg.data(), len, Datatype::kInt64, sender, i, world);
        for (auto v : msg) recv_checksum += v;
      }
    }
    // Global conservation: sum of all sent == sum of all received.
    std::int64_t total_sent = 0, total_recv = 0;
    mpisim::Allreduce(&sent_checksum, &total_sent, 1, Datatype::kInt64,
                      mpisim::ReduceOp::kSum, world);
    mpisim::Allreduce(&recv_checksum, &total_recv, 1, Datatype::kInt64,
                      mpisim::ReduceOp::kSum, world);
    EXPECT_EQ(total_sent, total_recv);
    // And no message may linger.
    mpisim::Barrier(world);
    EXPECT_EQ(mpisim::Ctx().runtime->MailboxOf(world.Rank()).QueuedMessages(),
              0u);
  });
}

TEST(Stress, CommunicatorChurnDoesNotExhaustContextIds) {
  // Create and destroy far more communicators than kMaxMaskContexts; the
  // release-on-destruction recycling must keep the id space bounded.
  RunRanks(4, [](Comm& world) {
    for (int i = 0; i < 3 * mpisim::kMaxMaskContexts; ++i) {
      Comm copy = mpisim::CommSplit(world, 0, world.Rank());
      ASSERT_FALSE(copy.IsNull());
      ASSERT_LT(copy.Base(), static_cast<std::uint64_t>(
                                 mpisim::kMaxMaskContexts));
      // copy goes out of scope -> id released on this rank.
    }
  });
}

TEST(Stress, DeepRbcSplitRecursionStaysFree) {
  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = 32});
  rt.Run([&rt](Comm& world) {
    rbc::Comm cur;
    rbc::Create_RBC_Comm(world, &cur);
    mpisim::Barrier(world);
    rt.ResetClocksAndStats();
    // Halve until singleton, then rebuild from the world again, 50 times.
    for (int round = 0; round < 50; ++round) {
      rbc::Comm walk = cur;
      while (walk.Size() > 1) {
        const int half = walk.Size() / 2;
        rbc::Comm next;
        if (walk.Rank() < half) {
          rbc::Split_RBC_Comm(walk, 0, half - 1, &next);
        } else {
          rbc::Split_RBC_Comm(walk, half, walk.Size() - 1, &next);
        }
        walk = next;
      }
    }
    EXPECT_EQ(mpisim::Ctx().stats.messages_sent, 0u);
    EXPECT_DOUBLE_EQ(mpisim::Ctx().clock.Now(), 0.0);
  });
}

TEST(Stress, CollectiveStormOnNestedRbcRanges) {
  // Interleave nonblocking collectives on three nested ranges that all
  // share rank 0; user tags keep them apart (the >1-overlap rule).
  RunRanks(8, [](Comm& world) {
    rbc::Comm rw, r04, r02;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 4, &r04);
    rbc::Split_RBC_Comm(rw, 0, 2, &r02);
    std::vector<rbc::Request> reqs;
    std::int64_t a = world.Rank() == 0 ? 11 : -1;
    std::int64_t b = world.Rank() == 0 ? 22 : -1;
    std::int64_t c = world.Rank() == 0 ? 33 : -1;
    auto start = [&](std::int64_t* buf, rbc::Comm& comm, int tag) {
      if (comm.Rank() < 0) return;
      rbc::Request req;
      rbc::Ibcast(buf, 1, rbc::Datatype::kInt64, 0, comm, &req,
                  rbc::RBC_IBCAST_TAG + 64 + tag);
      reqs.push_back(req);
    };
    for (int wave = 0; wave < 5; ++wave) {
      start(&a, rw, 3 * wave);
      start(&b, r04, 3 * wave + 1);
      start(&c, r02, 3 * wave + 2);
    }
    rbc::Waitall(reqs);
    EXPECT_EQ(a, 11);
    if (r04.Rank() >= 0) {
      EXPECT_EQ(b, 22);
    }
    if (r02.Rank() >= 0) {
      EXPECT_EQ(c, 33);
    }
  });
}

TEST(Stress, JQuickRandomizedConfigurations) {
  // The pivot policy and split schedule act on distributed levels only:
  // at n/p <= 50 JQuick finishes tasks of up to 14 ranks directly, so
  // every p here splits.
  std::mt19937_64 rng(20260612);
  for (int trial = 0; trial < 12; ++trial) {
    const int p = 15 + static_cast<int>(rng() % 18);       // 15..32
    const int quota = 1 + static_cast<int>(rng() % 50);    // 1..50
    const auto kind = static_cast<jsort::InputKind>(rng() % 8);
    jsort::JQuickConfig cfg;
    cfg.seed = rng();
    cfg.pivot = (rng() % 2) == 0 ? jsort::PivotPolicy::kMedianOfSamples
                                 : jsort::PivotPolicy::kRandomElement;
    cfg.schedule = (rng() % 2) == 0 ? jsort::SplitSchedule::kAlternating
                                    : jsort::SplitSchedule::kCascaded;
    RunRanks(p, [&](Comm& world) {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      auto input = jsort::GenerateInput(kind, world.Rank(), p, quota,
                                        cfg.seed + 1);
      const auto before = jsort::GlobalFingerprint(input, rw);
      auto tr = jsort::MakeRbcTransport(rw);
      jsort::JQuickStats stats;
      const auto out = jsort::JQuickSort(tr, std::move(input), cfg, &stats);
      EXPECT_GE(stats.distributed_levels, 1);
      EXPECT_EQ(static_cast<int>(out.size()), quota);
      EXPECT_EQ(before, jsort::GlobalFingerprint(out, rw));
      EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
    });
  }
}

TEST(Stress, NoLeftoverMessagesAfterJQuick) {
  // At n/p = 37, 10 ranks finish directly and 24 split first; neither
  // path may leave a message queued.
  for (const int p : {10, 24}) {
    RunRanks(p, [p](Comm& world) {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      auto input = jsort::GenerateInput(jsort::InputKind::kUniform,
                                        world.Rank(), p, 37, 2);
      auto tr = jsort::MakeRbcTransport(rw);
      jsort::JQuickStats stats;
      jsort::JQuickSort(tr, std::move(input), {}, &stats);
      if (p == 10) {
        EXPECT_EQ(stats.distributed_levels, 0);
      } else {
        EXPECT_GE(stats.distributed_levels, 1);
      }
      mpisim::Barrier(world);
      EXPECT_EQ(
          mpisim::Ctx().runtime->MailboxOf(world.Rank()).QueuedMessages(),
          0u)
          << "p=" << p;
    });
  }
}

TEST(Stress, MixedBackendsSortTheSameData) {
  // RBC, MPI and ICOMM transports must all produce the identical result
  // for the same seed (the transport only changes *how* groups are made).
  constexpr int kP = 6;
  testutil::PerRank<std::vector<double>> rbc_out(kP), mpi_out(kP),
      icomm_out(kP);
  auto run = [&](testutil::PerRank<std::vector<double>>& sink, int which) {
    RunRanks(kP, [&](Comm& world) {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      auto input = jsort::GenerateInput(jsort::InputKind::kGaussian,
                                        world.Rank(), kP, 25, 8);
      std::shared_ptr<jsort::Transport> tr;
      if (which == 0) {
        tr = jsort::MakeRbcTransport(rw);
      } else if (which == 1) {
        tr = jsort::MakeMpiTransport(world);
      } else {
        tr = jsort::MakeIcommTransport(world);
      }
      jsort::JQuickConfig cfg;
      cfg.seed = 5;
      sink.Set(world.Rank(), jsort::JQuickSort(tr, std::move(input), cfg));
    });
  };
  run(rbc_out, 0);
  run(mpi_out, 1);
  run(icomm_out, 2);
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(rbc_out[r], mpi_out[r]) << r;
    EXPECT_EQ(rbc_out[r], icomm_out[r]) << r;
  }
}

}  // namespace
