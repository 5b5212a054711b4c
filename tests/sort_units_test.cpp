// Pure-function units of the sorting layer: partition, quickselect,
// capacity layout / greedy assignment, sampling, workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "sort/assignment.hpp"
#include "sort/partition.hpp"
#include "sort/quickselect.hpp"
#include "sort/sampling.hpp"
#include "sort/workload.hpp"

namespace {

using jsort::AssignChunks;
using jsort::CapacityLayout;
using jsort::Chunk;

TEST(Partition, StrictSplitsByLessThan) {
  const std::vector<double> data{3, 1, 4, 1, 5, 9, 2, 6};
  auto r = jsort::Partition(data, 4.0, /*less_equal=*/false);
  EXPECT_EQ(r.small, (std::vector<double>{3, 1, 1, 2}));
  EXPECT_EQ(r.large, (std::vector<double>{4, 5, 9, 6}));
}

TEST(Partition, LessEqualMovesPivotDuplicatesLeft) {
  const std::vector<double> data{3, 4, 4, 5};
  auto lt = jsort::Partition(data, 4.0, false);
  auto le = jsort::Partition(data, 4.0, true);
  EXPECT_EQ(lt.small.size(), 1u);
  EXPECT_EQ(le.small.size(), 3u);
}

TEST(Partition, InPlaceMatchesOutOfPlaceCounts) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> d(0, 1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> data(100);
    for (auto& x : data) x = d(rng);
    const double pivot = data[trial % data.size()];
    auto copy = data;
    const auto split = jsort::Partition(data, pivot, trial % 2 == 0);
    const std::size_t cut =
        jsort::PartitionInPlace(copy, pivot, trial % 2 == 0);
    EXPECT_EQ(cut, split.small.size());
    std::vector<double> lhs(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(cut));
    auto small_sorted = split.small;
    std::sort(lhs.begin(), lhs.end());
    std::sort(small_sorted.begin(), small_sorted.end());
    EXPECT_EQ(lhs, small_sorted);
  }
}

TEST(Partition, EmptyInput) {
  auto r = jsort::Partition({}, 1.0, false);
  EXPECT_TRUE(r.small.empty());
  EXPECT_TRUE(r.large.empty());
}

class QuickselectSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    SizesAndK, QuickselectSweep,
    ::testing::Combine(::testing::Values(1, 2, 10, 100, 1000),
                       ::testing::Values(0, 1, 3, 50, 99)));

TEST_P(QuickselectSweep, FirstKAreSmallest) {
  const auto [n, k_raw] = GetParam();
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(k_raw),
                                              static_cast<std::size_t>(n));
  std::mt19937_64 rng(static_cast<std::uint64_t>(n * 131 + k_raw));
  std::vector<double> data(static_cast<std::size_t>(n));
  std::uniform_int_distribution<int> d(0, n / 2 + 1);  // force duplicates
  for (auto& x : data) x = d(rng);
  auto sorted = data;
  std::sort(sorted.begin(), sorted.end());
  jsort::QuickselectSmallest(data, k);
  std::vector<double> head(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(head.begin(), head.end());
  for (std::size_t i = 0; i < k; ++i) EXPECT_DOUBLE_EQ(head[i], sorted[i]);
  // The tail contains exactly the remaining multiset.
  std::vector<double> tail(data.begin() + static_cast<std::ptrdiff_t>(k), data.end());
  std::sort(tail.begin(), tail.end());
  for (std::size_t i = k; i < sorted.size(); ++i) {
    EXPECT_DOUBLE_EQ(tail[i - k], sorted[i]);
  }
}

TEST(CapacityLayout, UniformLayoutBasics) {
  const CapacityLayout l{.p = 4, .quota = 10, .cap_first = 10, .cap_last = 10};
  EXPECT_TRUE(l.Valid());
  EXPECT_EQ(l.Total(), 40);
  EXPECT_EQ(l.CapOf(0), 10);
  EXPECT_EQ(l.CapOf(3), 10);
  EXPECT_EQ(l.PrefixBefore(2), 20);
  EXPECT_EQ(l.RankOfSlot(0), 0);
  EXPECT_EQ(l.RankOfSlot(9), 0);
  EXPECT_EQ(l.RankOfSlot(10), 1);
  EXPECT_EQ(l.RankOfSlot(39), 3);
}

TEST(CapacityLayout, PartialEdgeCapacities) {
  // A janus-trimmed task: first rank holds 3, last holds 7, quota 10.
  const CapacityLayout l{.p = 5, .quota = 10, .cap_first = 3, .cap_last = 7};
  EXPECT_TRUE(l.Valid());
  EXPECT_EQ(l.Total(), 3 + 10 * 3 + 7);
  EXPECT_EQ(l.RankOfSlot(2), 0);
  EXPECT_EQ(l.RankOfSlot(3), 1);
  EXPECT_EQ(l.RankOfSlot(32), 3);
  EXPECT_EQ(l.RankOfSlot(33), 4);
  EXPECT_EQ(l.RankOfSlot(39), 4);
  EXPECT_EQ(l.PrefixBefore(5), l.Total());
}

TEST(CapacityLayout, SingleAndPairLayouts) {
  const CapacityLayout one{.p = 1, .quota = 10, .cap_first = 4, .cap_last = 4};
  EXPECT_TRUE(one.Valid());
  EXPECT_EQ(one.Total(), 4);
  EXPECT_EQ(one.RankOfSlot(3), 0);
  const CapacityLayout two{.p = 2, .quota = 0, .cap_first = 5, .cap_last = 3};
  EXPECT_EQ(two.Total(), 8);
  EXPECT_EQ(two.RankOfSlot(4), 0);
  EXPECT_EQ(two.RankOfSlot(5), 1);
}

TEST(CapacityLayout, RankOfSlotConsistentWithPrefixes) {
  const CapacityLayout l{.p = 7, .quota = 5, .cap_first = 2, .cap_last = 1};
  for (std::int64_t s = 0; s < l.Total(); ++s) {
    const int r = l.RankOfSlot(s);
    EXPECT_LE(l.PrefixBefore(r), s);
    EXPECT_LT(s, l.PrefixBefore(r) + l.CapOf(r));
  }
}

TEST(Assignment, ChunksCoverIntervalExactly) {
  const CapacityLayout l{.p = 5, .quota = 10, .cap_first = 3, .cap_last = 7};
  for (std::int64_t b = 0; b < l.Total(); b += 7) {
    for (std::int64_t e = b; e <= l.Total(); e += 11) {
      const auto chunks = AssignChunks(l, b, e);
      std::int64_t covered = 0;
      int prev_target = -1;
      for (const Chunk& c : chunks) {
        EXPECT_GT(c.count, 0);
        EXPECT_GT(c.target, prev_target);  // strictly increasing targets
        prev_target = c.target;
        covered += c.count;
      }
      EXPECT_EQ(covered, e - b);
    }
  }
}

TEST(Assignment, ChunkSizesRespectCapacities) {
  const CapacityLayout l{.p = 4, .quota = 8, .cap_first = 5, .cap_last = 2};
  const auto chunks = AssignChunks(l, 0, l.Total());
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0], (Chunk{0, 5}));
  EXPECT_EQ(chunks[1], (Chunk{1, 8}));
  EXPECT_EQ(chunks[2], (Chunk{2, 8}));
  EXPECT_EQ(chunks[3], (Chunk{3, 2}));
}

TEST(Assignment, EveryTargetReceivesExactlyItsCapacity) {
  // Simulate all senders: sender r owns slot interval [r*q, (r+1)*q).
  const CapacityLayout l{.p = 6, .quota = 9, .cap_first = 4, .cap_last = 6};
  std::vector<std::int64_t> received(6, 0);
  const std::int64_t total = l.Total();
  // Split the slot space into arbitrary sender intervals.
  std::int64_t pos = 0;
  std::mt19937_64 rng(3);
  while (pos < total) {
    const std::int64_t len =
        std::min<std::int64_t>(total - pos,
                               1 + static_cast<std::int64_t>(rng() % 13));
    for (const Chunk& c : AssignChunks(l, pos, pos + len)) {
      received[static_cast<std::size_t>(c.target)] += c.count;
    }
    pos += len;
  }
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(received[static_cast<std::size_t>(r)], l.CapOf(r)) << r;
  }
}

TEST(Assignment, OverlapWithRegionMatchesBruteForce) {
  const CapacityLayout l{.p = 5, .quota = 7, .cap_first = 2, .cap_last = 5};
  for (int r = 0; r < 5; ++r) {
    for (std::int64_t b = 0; b <= l.Total(); b += 3) {
      for (std::int64_t e = b; e <= l.Total(); e += 5) {
        std::int64_t expect = 0;
        for (std::int64_t s = b; s < e; ++s) {
          if (l.RankOfSlot(s) == r) ++expect;
        }
        EXPECT_EQ(jsort::OverlapWithRegion(l, r, b, e), expect);
      }
    }
  }
}

TEST(Sampling, ReservoirKeyInUnitInterval) {
  std::mt19937_64 rng(1);
  const std::vector<double> data{5, 6, 7};
  for (int i = 0; i < 100; ++i) {
    const auto c = jsort::ReservoirCandidate(data, rng);
    EXPECT_GT(c.first, 0.0);
    EXPECT_LE(c.first, 1.0);
    EXPECT_TRUE(c.second == 5 || c.second == 6 || c.second == 7);
  }
}

TEST(Sampling, ReservoirEmptyLosesToAnyNonEmpty) {
  std::mt19937_64 rng(2);
  const auto empty = jsort::ReservoirCandidate({}, rng);
  const std::vector<double> data{1.0};
  const auto full = jsort::ReservoirCandidate(data, rng);
  EXPECT_LT(empty.first, full.first);
}

TEST(Sampling, LargerLocalCountWinsMoreOften) {
  // key = u^(1/m): a rank with 10x the data should win ~10x as often.
  std::mt19937_64 rng(3);
  const std::vector<double> big(1000, 1.0);
  const std::vector<double> small(100, 2.0);
  int big_wins = 0;
  constexpr int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    const auto a = jsort::ReservoirCandidate(big, rng);
    const auto b = jsort::ReservoirCandidate(small, rng);
    if (a.first > b.first) ++big_wins;
  }
  const double frac = static_cast<double>(big_wins) / kTrials;
  EXPECT_GT(frac, 0.85);  // expected 10/11 ~ 0.909
  EXPECT_LT(frac, 0.97);
}

TEST(Sampling, MedianOfOddSample) {
  std::vector<double> s{5, 1, 9, 3, 7};
  EXPECT_DOUBLE_EQ(jsort::MedianOf(s), 5.0);
}

TEST(Sampling, PivotSamplesHonoursFloors) {
  EXPECT_EQ(jsort::PivotSamples(1), 16);        // the floor of 16
  EXPECT_EQ(jsort::PivotSamples(2), 16);
  EXPECT_EQ(jsort::PivotSamples(256), 16);      // 2 log2 p = 16
  EXPECT_EQ(jsort::PivotSamples(300), 16);      // 16.46, truncated
  EXPECT_EQ(jsort::PivotSamples(512), 18);
  EXPECT_EQ(jsort::PivotSamples(1 << 20), 40);  // 2 * 20
}

TEST(Workload, DeterministicAndSized) {
  for (auto kind :
       {jsort::InputKind::kUniform, jsort::InputKind::kGaussian,
        jsort::InputKind::kSortedAsc, jsort::InputKind::kSortedDesc,
        jsort::InputKind::kAllEqual, jsort::InputKind::kFewDistinct,
        jsort::InputKind::kZipf, jsort::InputKind::kBucketKiller}) {
    const auto a = jsort::GenerateInput(kind, 1, 4, 100, 42);
    const auto b = jsort::GenerateInput(kind, 1, 4, 100, 42);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(a, b) << jsort::InputKindName(kind);
  }
}

TEST(Workload, SortedKindsAreGloballySorted) {
  std::vector<double> all;
  for (int r = 0; r < 4; ++r) {
    const auto part =
        jsort::GenerateInput(jsort::InputKind::kSortedAsc, r, 4, 10, 1);
    all.insert(all.end(), part.begin(), part.end());
  }
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  all.clear();
  for (int r = 0; r < 4; ++r) {
    const auto part =
        jsort::GenerateInput(jsort::InputKind::kSortedDesc, r, 4, 10, 1);
    all.insert(all.end(), part.begin(), part.end());
  }
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             std::greater<double>()));
}

}  // namespace
