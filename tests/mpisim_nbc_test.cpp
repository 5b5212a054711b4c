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

TEST(Nbc, ManyOutstandingBcastsDrainInOrder) {
  // Eight broadcasts in flight at once, from rotating roots, each on its
  // own counter tag: every one lands its own root's value.
  RunRanks(3, [](Comm& world) {
    std::vector<std::int64_t> vals(8);
    std::vector<Request> reqs;
    for (int i = 0; i < 8; ++i) {
      const int root = i % 3;
      vals[static_cast<std::size_t>(i)] = world.Rank() == root ? 10 * i : -1;
      reqs.push_back(mpisim::Ibcast(&vals[static_cast<std::size_t>(i)], 1,
                                    Datatype::kInt64, root, world));
    }
    mpisim::Waitall(reqs);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(vals[static_cast<std::size_t>(i)], 10 * i);
    }
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

}  // namespace
