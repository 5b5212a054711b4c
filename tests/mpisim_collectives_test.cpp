// The substrate's collectives, swept over process counts (including
// non-powers of two) and payload sizes: the blocking ones, and the reduce,
// gather and scan schedules through the nonblocking forms that run them.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "testutil.hpp"

namespace {

using mpisim::Comm;
using mpisim::Datatype;
using mpisim::ReduceOp;
using testutil::RunRanks;

class CollectiveSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ProcessCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

TEST_P(CollectiveSweep, BcastFromEveryRoot) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::int64_t> buf(3, world.Rank() == root ? 7 + root : -1);
      mpisim::Bcast(buf.data(), 3, Datatype::kInt64, root, world);
      EXPECT_EQ(buf, (std::vector<std::int64_t>(3, 7 + root)));
    }
  });
}

TEST_P(CollectiveSweep, ReduceSumsToEveryRoot) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    for (int root = 0; root < p; ++root) {
      const std::int64_t mine = world.Rank() + 1;
      std::int64_t out = 0;
      mpisim::Request r = mpisim::Ireduce(&mine, &out, 1, Datatype::kInt64,
                                          ReduceOp::kSum, root, world);
      mpisim::Wait(r);
      if (world.Rank() == root) {
        EXPECT_EQ(out, static_cast<std::int64_t>(p) * (p + 1) / 2);
      }
    }
  });
}

TEST_P(CollectiveSweep, AllreduceMinMax) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    const double mine = static_cast<double>(world.Rank());
    double mn = 0, mx = 0;
    mpisim::Allreduce(&mine, &mn, 1, Datatype::kFloat64, ReduceOp::kMin,
                      world);
    mpisim::Allreduce(&mine, &mx, 1, Datatype::kFloat64, ReduceOp::kMax,
                      world);
    EXPECT_DOUBLE_EQ(mn, 0.0);
    EXPECT_DOUBLE_EQ(mx, static_cast<double>(p - 1));
  });
}

TEST_P(CollectiveSweep, InclusiveScanMatchesPrefix) {
  const int p = GetParam();
  RunRanks(p, [](Comm& world) {
    const std::int64_t mine[2] = {world.Rank() + 1, 1};
    std::int64_t out[2] = {0, 0};
    mpisim::Request req =
        mpisim::Iscan(mine, out, 2, Datatype::kInt64, ReduceOp::kSum, world);
    mpisim::Wait(req);
    const std::int64_t r = world.Rank();
    EXPECT_EQ(out[0], (r + 1) * (r + 2) / 2);
    EXPECT_EQ(out[1], r + 1);
  });
}

TEST_P(CollectiveSweep, GatherOrdersBlocksByRank) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    for (int root = 0; root < std::min(p, 3); ++root) {
      const std::int64_t mine[2] = {world.Rank(), world.Rank() * 10};
      std::vector<std::int64_t> all(static_cast<std::size_t>(2 * p), -1);
      mpisim::Request req =
          mpisim::Igather(mine, 2, Datatype::kInt64, all.data(), root, world);
      mpisim::Wait(req);
      if (world.Rank() == root) {
        for (int r = 0; r < p; ++r) {
          EXPECT_EQ(all[static_cast<std::size_t>(2 * r)], r);
          EXPECT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r * 10);
        }
      }
    }
  });
}

TEST_P(CollectiveSweep, AllgatherDistributesAllBlocks) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    const std::int64_t mine = 100 + world.Rank();
    std::vector<std::int64_t> all(static_cast<std::size_t>(p), -1);
    mpisim::Allgather(&mine, 1, Datatype::kInt64, all.data(), world);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], 100 + r);
    }
  });
}

TEST_P(CollectiveSweep, AlltoallTransposesBlocks) {
  // The uniform all-to-all: Alltoallv with one element to every rank.
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    std::vector<std::int64_t> send(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      send[static_cast<std::size_t>(i)] = world.Rank() * 1000 + i;
    }
    const std::vector<int> ones(static_cast<std::size_t>(p), 1);
    std::vector<int> displs(static_cast<std::size_t>(p));
    std::iota(displs.begin(), displs.end(), 0);
    std::vector<std::int64_t> recv(static_cast<std::size_t>(p), -1);
    mpisim::Alltoallv(send.data(), ones, displs, Datatype::kInt64,
                      recv.data(), ones, displs, world);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(recv[static_cast<std::size_t>(r)], r * 1000 + world.Rank());
    }
  });
}

TEST_P(CollectiveSweep, BarrierCompletes) {
  const int p = GetParam();
  RunRanks(p, [](Comm& world) {
    for (int i = 0; i < 3; ++i) mpisim::Barrier(world);
  });
}

TEST(Collectives, ScanLargePayload) {
  RunRanks(5, [](Comm& world) {
    std::vector<double> mine(1000, 1.0);
    std::vector<double> out(1000, 0.0);
    mpisim::Request r = mpisim::Iscan(mine.data(), out.data(), 1000,
                                      Datatype::kFloat64, ReduceOp::kSum,
                                      world);
    mpisim::Wait(r);
    EXPECT_DOUBLE_EQ(out[0], world.Rank() + 1.0);
    EXPECT_DOUBLE_EQ(out[999], world.Rank() + 1.0);
  });
}

TEST(Collectives, ReducePairMaxFirstSelectsWinner) {
  RunRanks(4, [](Comm& world) {
    const mpisim::PairDD mine{static_cast<double>(world.Rank()),
                              world.Rank() * 2.0};
    mpisim::PairDD out{-1, -1};
    mpisim::Request r = mpisim::Ireduce(&mine, &out, 1,
                                        Datatype::kPairDoubleDouble,
                                        ReduceOp::kMaxPairFirst, 0, world);
    mpisim::Wait(r);
    if (world.Rank() == 0) {
      EXPECT_DOUBLE_EQ(out.first, 3.0);
      EXPECT_DOUBLE_EQ(out.second, 6.0);
    }
  });
}

TEST(Collectives, AlltoallvRejectsShortCountSpans) {
  const auto alltoallv = [](Comm& world) {
    const std::vector<int> counts{1, 1, 1}, displs{0, 1, 2};
    std::vector<std::int64_t> send(4, world.Rank()), recv(4, -1);
    mpisim::Alltoallv(send.data(), counts, displs, Datatype::kInt64,
                      recv.data(), counts, displs, world);
  };
  EXPECT_THROW(RunRanks(4, alltoallv), mpisim::UsageError);
}

}  // namespace
