// Nonblocking collectives of the substrate: correctness, test-driven
// progress, concurrency of several operations, and the per-communicator
// tag counter.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "testutil.hpp"

namespace {

using mpisim::Comm;
using mpisim::Datatype;
using mpisim::ReduceOp;
using mpisim::Request;
using testutil::RunRanks;

class NbcSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ProcessCounts, NbcSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 11));

TEST_P(NbcSweep, IbcastDeliversToAll) {
  const int p = GetParam();
  RunRanks(p, [](Comm& world) {
    std::int64_t v = world.Rank() == 0 ? 99 : -1;
    Request r = mpisim::Ibcast(&v, 1, Datatype::kInt64, 0, world);
    mpisim::Wait(r);
    EXPECT_EQ(v, 99);
  });
}

TEST_P(NbcSweep, IreduceSums) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    const std::int64_t mine = world.Rank() + 1;
    std::int64_t out = 0;
    Request r = mpisim::Ireduce(&mine, &out, 1, Datatype::kInt64,
                                ReduceOp::kSum, 0, world);
    mpisim::Wait(r);
    if (world.Rank() == 0) {
      EXPECT_EQ(out, static_cast<std::int64_t>(p) * (p + 1) / 2);
    }
  });
}

TEST_P(NbcSweep, IallreduceDistributesResult) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    const std::int64_t mine = world.Rank() + 1;
    std::int64_t out = 0;
    Request r = mpisim::Iallreduce(&mine, &out, 1, Datatype::kInt64,
                                   ReduceOp::kSum, world);
    mpisim::Wait(r);
    EXPECT_EQ(out, static_cast<std::int64_t>(p) * (p + 1) / 2);
  });
}

TEST_P(NbcSweep, IscanComputesPrefix) {
  const int p = GetParam();
  RunRanks(p, [](Comm& world) {
    const std::int64_t mine = world.Rank() + 1;
    std::int64_t out = 0;
    Request r =
        mpisim::Iscan(&mine, &out, 1, Datatype::kInt64, ReduceOp::kSum,
                      world);
    mpisim::Wait(r);
    const std::int64_t k = world.Rank() + 1;
    EXPECT_EQ(out, k * (k + 1) / 2);
  });
}

TEST_P(NbcSweep, IgatherCollects) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    const std::int64_t mine = world.Rank() * 3;
    std::vector<std::int64_t> all(static_cast<std::size_t>(p), -1);
    Request r =
        mpisim::Igather(&mine, 1, Datatype::kInt64, all.data(), 0, world);
    mpisim::Wait(r);
    if (world.Rank() == 0) {
      for (int i = 0; i < p; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 3);
      }
    }
  });
}

TEST_P(NbcSweep, IgathervCollectsVariableBlocks) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    const int mine_n = world.Rank() % 3 + 1;
    std::vector<double> mine(static_cast<std::size_t>(mine_n),
                             static_cast<double>(world.Rank()));
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < p; ++r) {
      counts.push_back(r % 3 + 1);
      displs.push_back(total);
      total += r % 3 + 1;
    }
    std::vector<double> all(static_cast<std::size_t>(total), -1.0);
    Request r = mpisim::Igatherv(mine.data(), mine_n, Datatype::kFloat64,
                                 all.data(), counts, displs, 0, world);
    mpisim::Wait(r);
    if (world.Rank() == 0) {
      for (int rk = 0; rk < p; ++rk) {
        for (int i = 0; i < counts[static_cast<std::size_t>(rk)]; ++i) {
          EXPECT_DOUBLE_EQ(
              all[static_cast<std::size_t>(displs[static_cast<std::size_t>(rk)] + i)],
              static_cast<double>(rk));
        }
      }
    }
  });
}

TEST_P(NbcSweep, IbarrierCompletes) {
  const int p = GetParam();
  RunRanks(p, [](Comm& world) {
    Request r = mpisim::Ibarrier(world);
    mpisim::Wait(r);
  });
}

TEST(Nbc, TwoConcurrentIbcastsOnOneComm) {
  // The per-communicator tag counter must keep two in-flight broadcasts
  // apart even though they share the communicator and roots.
  RunRanks(4, [](Comm& world) {
    std::int64_t a = world.Rank() == 0 ? 1 : -1;
    std::int64_t b = world.Rank() == 0 ? 2 : -1;
    Request ra = mpisim::Ibcast(&a, 1, Datatype::kInt64, 0, world);
    Request rb = mpisim::Ibcast(&b, 1, Datatype::kInt64, 0, world);
    std::vector<Request> reqs{ra, rb};
    mpisim::Waitall(reqs);
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
  });
}

TEST(Nbc, ConcurrentScanAndReduceInterleave) {
  RunRanks(6, [](Comm& world) {
    const std::int64_t mine = world.Rank() + 1;
    std::int64_t scan_out = 0, red_out = 0;
    Request rs = mpisim::Iscan(&mine, &scan_out, 1, Datatype::kInt64,
                               ReduceOp::kSum, world);
    Request rr = mpisim::Ireduce(&mine, &red_out, 1, Datatype::kInt64,
                                 ReduceOp::kMax, 0, world);
    std::vector<Request> reqs{rs, rr};
    mpisim::Waitall(reqs);
    const std::int64_t k = world.Rank() + 1;
    EXPECT_EQ(scan_out, k * (k + 1) / 2);
    if (world.Rank() == 0) {
      EXPECT_EQ(red_out, 6);
    }
  });
}

TEST(Nbc, ProgressOnlyThroughTest) {
  // A nonblocking bcast on a non-root rank must not complete before Test
  // is called, and must complete after the message arrived.
  RunRanks(2, [](Comm& world) {
    if (world.Rank() == 1) {
      std::int64_t v = -1;
      Request r = mpisim::Ibcast(&v, 1, Datatype::kInt64, 0, world);
      while (!mpisim::Test(r)) {
      }
      EXPECT_EQ(v, 5);
    } else {
      std::int64_t v = 5;
      Request r = mpisim::Ibcast(&v, 1, Datatype::kInt64, 0, world);
      mpisim::Wait(r);
    }
  });
}

TEST(Nbc, NullRequestTestsComplete) {
  RunRanks(1, [](Comm&) {
    Request r;
    EXPECT_TRUE(r.Test(nullptr));
    mpisim::Wait(r);  // must not hang
  });
}

TEST(Nbc, ManyOutstandingBarriersDrainInOrder) {
  RunRanks(3, [](Comm& world) {
    std::vector<Request> reqs;
    for (int i = 0; i < 8; ++i) reqs.push_back(mpisim::Ibarrier(world));
    mpisim::Waitall(reqs);
  });
}

TEST_P(NbcSweep, IsparseAlltoallvRoutesOnlyListedBlocks) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    const int me = world.Rank();
    // Rank i sends i+1 doubles (value 100*i + dest) to its right
    // neighbour only; every rank receives exactly one message (from its
    // left neighbour), discovered without any counts round.
    const int dest = (me + 1) % p;
    std::vector<double> payload(static_cast<std::size_t>(me) + 1,
                                100.0 * me + dest);
    std::vector<mpisim::SparseSendBlock> sends{mpisim::SparseSendBlock{
        dest, payload.data(), static_cast<int>(payload.size())}};
    std::vector<mpisim::SparseRecvMessage> got;
    Request r = mpisim::IsparseAlltoallv(sends, Datatype::kFloat64, &got,
                                         world);
    mpisim::Wait(r);
    const int src = (me + p - 1) % p;
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].source, src);
    std::vector<double> expect(static_cast<std::size_t>(src) + 1,
                               100.0 * src + me);
    std::vector<double> vals(got[0].bytes.size() / sizeof(double));
    std::memcpy(vals.data(), got[0].bytes.data(),
                vals.size() * sizeof(double));
    EXPECT_EQ(vals, expect);
  });
}

TEST(Nbc, IsparseAlltoallvBackToBackAndConcurrentWithOtherNbc) {
  // The tag-counter draws of the sparse exchange (payload + two barrier
  // pairs) must stay synchronous across ranks even with another
  // nonblocking collective in flight, and round r+1 must never leak into
  // round r (second-barrier fence).
  constexpr int kP = 5;
  RunRanks(kP, [](Comm& world) {
    const int me = world.Rank();
    std::int64_t v = me == 0 ? 7 : -1;
    Request bcast = mpisim::Ibcast(&v, 1, Datatype::kInt64, 0, world);
    for (int round = 0; round < 3; ++round) {
      const int dest = (me + 1 + round) % kP;
      const double payload = me * 10.0 + round;
      std::vector<mpisim::SparseSendBlock> sends{
          mpisim::SparseSendBlock{dest, &payload, 1}};
      std::vector<mpisim::SparseRecvMessage> got;
      Request r = mpisim::IsparseAlltoallv(sends, Datatype::kFloat64, &got,
                                           world);
      mpisim::Wait(r);
      ASSERT_EQ(got.size(), 1u) << "round " << round;
      const int src = (me + kP - 1 - round) % kP;
      EXPECT_EQ(got[0].source, src);
      double val = 0.0;
      std::memcpy(&val, got[0].bytes.data(), sizeof val);
      EXPECT_EQ(val, src * 10.0 + round);
    }
    mpisim::Wait(bcast);
    EXPECT_EQ(v, 7);
  });
}

TEST(Nbc, IsparseAlltoallvRejectsBadBlocks) {
  RunRanks(1, [](Comm& world) {
    const double x = 1.0;
    std::vector<mpisim::SparseRecvMessage> got;
    {
      std::vector<mpisim::SparseSendBlock> sends{
          mpisim::SparseSendBlock{5, &x, 1}};
      EXPECT_THROW(
          mpisim::IsparseAlltoallv(sends, Datatype::kFloat64, &got, world),
          mpisim::UsageError);
    }
    {
      std::vector<mpisim::SparseSendBlock> sends{
          mpisim::SparseSendBlock{0, &x, -1}};
      EXPECT_THROW(
          mpisim::IsparseAlltoallv(sends, Datatype::kFloat64, &got, world),
          mpisim::UsageError);
    }
    EXPECT_THROW(mpisim::IsparseAlltoallv({}, Datatype::kFloat64, nullptr,
                                          world),
                 mpisim::UsageError);
  });
}

TEST(Nbc, IgathervRejectsShortCountSpans) {
  // The root's recvcounts and displs need Size() entries; three at p = 4
  // used to be read past their end.
  const auto igatherv = [](Comm& world) {
    const std::vector<int> counts{1, 1, 1}, displs{0, 1, 2};
    const std::int64_t mine = world.Rank();
    std::vector<std::int64_t> all(4, -1);
    Request r = mpisim::Igatherv(&mine, 1, Datatype::kInt64, all.data(),
                                 counts, displs, 0, world);
    mpisim::Wait(r);
  };
  EXPECT_THROW(RunRanks(4, igatherv), mpisim::UsageError);
}

}  // namespace
