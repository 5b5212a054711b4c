// RBC collectives (blocking and nonblocking) over full ranges, sub-ranges
// and strided ranges, swept over process counts and strides.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <ostream>
#include <vector>

#include "testutil.hpp"

namespace {

using rbc::Datatype;
using rbc::ReduceOp;
using testutil::RunRanks;
using testutil::RunRbc;

/// RbcCollSweep's range: p members at world ranks stride - 1,
/// 2 * stride - 1, ..., footnote 2's strided range of a (p * stride)-rank
/// world, split locally; with stride 1 the whole world.
struct StridedRange {
  int stride;
  int p;
};

/// Names a case by p, with the stride appended past 1: "9", "9Stride3".
void PrintTo(const StridedRange& r, std::ostream* os) {
  *os << r.p;
  if (r.stride > 1) *os << "Stride" << r.stride;
}

std::vector<StridedRange> SweptRanges() {
  std::vector<StridedRange> ranges;
  for (const int stride : {1, 2, 3}) {
    for (const int p : {1, 2, 3, 4, 6, 9, 16}) ranges.push_back({stride, p});
  }
  return ranges;
}

class RbcCollSweep : public ::testing::TestWithParam<StridedRange> {
 protected:
  /// Runs `fn(range)` on the range's members; every other rank builds
  /// the range too and returns.
  static void RunOnRange(const std::function<void(rbc::Comm&)>& fn) {
    const StridedRange r = GetParam();
    RunRanks(r.p * r.stride, [&](mpisim::Comm& world) {
      rbc::Comm rw, range;
      rbc::Create_RBC_Comm(world, &rw);
      rbc::Split_RBC_Comm_Strided(rw, r.stride - 1, r.p * r.stride - 1,
                                  r.stride, &range);
      if (range.Rank() >= 0) fn(range);
    });
  }
};

INSTANTIATE_TEST_SUITE_P(ProcessCounts, RbcCollSweep,
                         ::testing::ValuesIn(SweptRanges()));

TEST_P(RbcCollSweep, BcastFromEveryRoot) {
  const int p = GetParam().p;
  RunOnRange([p](rbc::Comm& range) {
    for (int root = 0; root < p; ++root) {
      std::int64_t v = range.Rank() == root ? root + 50 : -1;
      rbc::Bcast(&v, 1, Datatype::kInt64, root, range);
      EXPECT_EQ(v, root + 50);
    }
  });
}

TEST_P(RbcCollSweep, ReduceSums) {
  const int p = GetParam().p;
  RunOnRange([p](rbc::Comm& range) {
    const std::int64_t mine = range.Rank() + 1;
    std::int64_t out = 0;
    rbc::Reduce(&mine, &out, 1, Datatype::kInt64, ReduceOp::kSum, 0, range);
    if (range.Rank() == 0) {
      EXPECT_EQ(out, static_cast<std::int64_t>(p) * (p + 1) / 2);
    }
  });
}

TEST_P(RbcCollSweep, ScanComputesInclusivePrefix) {
  RunOnRange([](rbc::Comm& range) {
    const std::int64_t mine[2] = {range.Rank() + 1, 2};
    std::int64_t out[2] = {0, 0};
    rbc::Scan(mine, out, 2, Datatype::kInt64, ReduceOp::kSum, range);
    const std::int64_t k = range.Rank() + 1;
    EXPECT_EQ(out[0], k * (k + 1) / 2);
    EXPECT_EQ(out[1], 2 * k);
  });
}

TEST_P(RbcCollSweep, GatherCollectsInRankOrder) {
  const int p = GetParam().p;
  RunOnRange([p](rbc::Comm& range) {
    const double mine = range.Rank() * 1.5;
    std::vector<double> all(static_cast<std::size_t>(p), -1);
    rbc::Gather(&mine, 1, Datatype::kFloat64, all.data(), 0, range);
    if (range.Rank() == 0) {
      for (int r = 0; r < p; ++r) {
        EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r * 1.5);
      }
    }
  });
}

TEST_P(RbcCollSweep, GathervCollectsVariableBlocks) {
  const int p = GetParam().p;
  RunOnRange([p](rbc::Comm& range) {
    const int mine_n = range.Rank() % 4 + 1;
    std::vector<double> mine(static_cast<std::size_t>(mine_n),
                             static_cast<double>(range.Rank()));
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < p; ++r) {
      counts.push_back(r % 4 + 1);
      displs.push_back(total);
      total += r % 4 + 1;
    }
    std::vector<double> all(static_cast<std::size_t>(total), -1.0);
    rbc::Gatherv(mine.data(), mine_n, Datatype::kFloat64, all.data(), counts,
                 displs, 0, range);
    if (range.Rank() == 0) {
      for (int r = 0; r < p; ++r) {
        for (int i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
          EXPECT_DOUBLE_EQ(
              all[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] + i)],
              static_cast<double>(r));
        }
      }
    }
  });
}

TEST_P(RbcCollSweep, BarrierCompletes) {
  RunOnRange([](rbc::Comm& range) {
    for (int i = 0; i < 3; ++i) rbc::Barrier(range);
  });
}

TEST_P(RbcCollSweep, NonblockingFormsComplete) {
  const int p = GetParam().p;
  RunOnRange([p](rbc::Comm& range) {
    std::int64_t b = range.Rank() == 0 ? 5 : -1;
    std::int64_t red_in = range.Rank() + 1, red_out = 0;
    std::int64_t scan_in = 1, scan_out = 0;
    rbc::Request rb, rr, rs, rbar;
    rbc::Ibcast(&b, 1, Datatype::kInt64, 0, range, &rb);
    rbc::Ireduce(&red_in, &red_out, 1, Datatype::kInt64, ReduceOp::kSum, 0,
                 range, &rr);
    rbc::Iscan(&scan_in, &scan_out, 1, Datatype::kInt64, ReduceOp::kSum,
               range, &rs);
    rbc::Ibarrier(range, &rbar);
    std::vector<rbc::Request> reqs{rb, rr, rs, rbar};
    rbc::Waitall(reqs);
    EXPECT_EQ(b, 5);
    if (range.Rank() == 0) {
      EXPECT_EQ(red_out, static_cast<std::int64_t>(p) * (p + 1) / 2);
    }
    EXPECT_EQ(scan_out, range.Rank() + 1);
  });
}

TEST_P(RbcCollSweep, StridedSplitOfTheRangeRunsCollectives) {
  // Every other member of the range: stride 2 * stride over the world. A
  // reduce and a broadcast over it see exactly those world ranks.
  const int stride = GetParam().stride;
  const int p = GetParam().p;
  const int m = (p + 1) / 2;
  std::int64_t world_sum = 0;
  for (int i = 0; i < p; i += 2) world_sum += stride - 1 + i * stride;
  RunOnRange([&](rbc::Comm& range) {
    rbc::Comm evens;
    rbc::Split_RBC_Comm_Strided(range, 0, p - 1, 2, &evens);
    EXPECT_EQ(evens.Size(), m);
    EXPECT_EQ(evens.Stride(), 2 * stride);
    if (range.Rank() % 2 != 0) {
      EXPECT_EQ(evens.Rank(), -1);
      return;
    }
    EXPECT_EQ(evens.Rank(), range.Rank() / 2);
    const std::int64_t mine = mpisim::Ctx().world_rank;
    std::int64_t sum = -1;
    rbc::Reduce(&mine, &sum, 1, Datatype::kInt64, ReduceOp::kSum, m - 1,
                evens);
    rbc::Bcast(&sum, 1, Datatype::kInt64, m - 1, evens);
    EXPECT_EQ(sum, world_sum);
  });
}

TEST(RbcColl, CollectiveOnSubRangeLeavesOthersUntouched) {
  RunRanks(8, [](mpisim::Comm& world) {
    rbc::Comm rw, mid;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 2, 5, &mid);
    if (world.Rank() >= 2 && world.Rank() <= 5) {
      std::int64_t v = mid.Rank() == 0 ? 123 : -1;
      rbc::Bcast(&v, 1, Datatype::kInt64, 0, mid);
      EXPECT_EQ(v, 123);
    }
    mpisim::Barrier(world);
    // No stray messages may remain anywhere.
    EXPECT_EQ(mpisim::Ctx().runtime->MailboxOf(world.Rank()).QueuedMessages(),
              0u);
  });
}

TEST(RbcColl, SimultaneousCollectivesOnDisjointHalves) {
  RunRanks(8, [](mpisim::Comm& world) {
    rbc::Comm rw, half;
    rbc::Create_RBC_Comm(world, &rw);
    const bool low = world.Rank() < 4;
    rbc::Split_RBC_Comm(rw, low ? 0 : 4, low ? 3 : 7, &half);
    std::int64_t sum = 0;
    const std::int64_t mine = world.Rank();
    rbc::Reduce(&mine, &sum, 1, Datatype::kInt64, ReduceOp::kSum, 0, half);
    rbc::Bcast(&sum, 1, Datatype::kInt64, 0, half);
    EXPECT_EQ(sum, low ? 0 + 1 + 2 + 3 : 4 + 5 + 6 + 7);
  });
}

TEST(RbcColl, SimultaneousNonblockingCollectivesWithUserTags) {
  // Two nonblocking broadcasts in flight on the SAME communicator,
  // distinguished by user-supplied tags (the paper's Ibcast tag
  // parameter).
  RunRbc(6, [](rbc::Comm& rw) {
    std::int64_t a = rw.Rank() == 0 ? 1 : -1;
    std::int64_t b = rw.Rank() == 0 ? 2 : -1;
    rbc::Request ra, rrb;
    rbc::Ibcast(&a, 1, Datatype::kInt64, 0, rw, &ra, 100);
    rbc::Ibcast(&b, 1, Datatype::kInt64, 0, rw, &rrb, 200);
    std::vector<rbc::Request> reqs{ra, rrb};
    rbc::Waitall(reqs);
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
  });
}

TEST(RbcColl, CollectivesOnStridedRange) {
  RunRanks(8, [](mpisim::Comm& world) {
    rbc::Comm rw, even;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm_Strided(rw, 0, 7, 2, &even);
    if (world.Rank() % 2 == 0) {
      std::int64_t sum = 0;
      const std::int64_t mine = world.Rank();
      rbc::Reduce(&mine, &sum, 1, Datatype::kInt64, ReduceOp::kSum, 0, even);
      if (even.Rank() == 0) {
        EXPECT_EQ(sum, 0 + 2 + 4 + 6);
      }
    }
  });
}

TEST(RbcColl, OverlappingRangesConcurrentCollectivesOneSharedRank) {
  // The janus pattern: rank 3 is in {0..3} and {3..6}; both groups run a
  // nonblocking reduce simultaneously and rank 3 progresses both.
  RunRanks(7, [](mpisim::Comm& world) {
    rbc::Comm rw, left, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 3, &left);
    rbc::Split_RBC_Comm(rw, 3, 6, &right);
    const std::int64_t mine = world.Rank();
    std::int64_t lsum = 0, rsum = 0;
    std::vector<rbc::Request> reqs;
    if (left.Rank() >= 0) {
      rbc::Request r;
      rbc::Ireduce(&mine, &lsum, 1, Datatype::kInt64, ReduceOp::kSum, 0,
                   left, &r);
      reqs.push_back(r);
    }
    if (right.Rank() >= 0) {
      rbc::Request r;
      rbc::Ireduce(&mine, &rsum, 1, Datatype::kInt64, ReduceOp::kSum, 0,
                   right, &r);
      reqs.push_back(r);
    }
    rbc::Waitall(reqs);
    if (world.Rank() == 0) {
      EXPECT_EQ(lsum, 0 + 1 + 2 + 3);
    }
    if (world.Rank() == 3) {
      EXPECT_EQ(rsum, 3 + 4 + 5 + 6);
    }
  });
}

TEST(RbcColl, LargePayloadBcast) {
  RunRbc(5, [](rbc::Comm& rw) {
    std::vector<double> v(4096, rw.Rank() == 2 ? 1.25 : 0.0);
    rbc::Bcast(v.data(), 4096, Datatype::kFloat64, 2, rw);
    EXPECT_DOUBLE_EQ(v.front(), 1.25);
    EXPECT_DOUBLE_EQ(v.back(), 1.25);
  });
}

TEST(RbcColl, GathervRejectsShortCountSpans) {
  // The root's recvcounts and displs need Size() entries; three at p = 4
  // used to be read past their end. Both forms run the core's Gatherv
  // schedule, which checks them.
  const auto gatherv = [](rbc::Comm& rw) {
    const std::vector<int> counts{1, 1, 1}, displs{0, 1, 2};
    const double mine = rw.Rank();
    std::vector<double> all(4, -1.0);
    rbc::Gatherv(&mine, 1, Datatype::kFloat64, all.data(), counts, displs, 0,
                 rw);
  };
  EXPECT_THROW(RunRbc(4, gatherv), mpisim::UsageError);
  const auto igatherv = [](rbc::Comm& rw) {
    const std::vector<int> counts{1, 1, 1}, displs{0, 1, 2};
    const double mine = rw.Rank();
    std::vector<double> all(4, -1.0);
    rbc::Request req;
    rbc::Igatherv(&mine, 1, Datatype::kFloat64, all.data(), counts, displs,
                  0, rw, &req);
    rbc::Wait(&req);
  };
  EXPECT_THROW(RunRbc(4, igatherv), mpisim::UsageError);
}

}  // namespace
