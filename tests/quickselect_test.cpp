// QuickselectKth: the local three-way selection kernel underneath
// QuickselectSmallest. Property-swept against std::nth_element across
// edge ranks (k in {0, 1, n-1}), duplicate-heavy/Zipf and all-equal
// inputs, plus its split-boundary invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "mpisim/error.hpp"
#include "sort/quickselect.hpp"
#include "sort/workload.hpp"

namespace {

using jsort::InputKind;
using jsort::KthSplit;
using jsort::QuickselectKth;

std::vector<double> Input(InputKind kind, std::size_t n, std::uint64_t seed) {
  return jsort::GenerateInput(kind, /*rank=*/0, /*p=*/1,
                              static_cast<std::int64_t>(n), seed);
}

/// Checks the full contract of one QuickselectKth call against a sorted
/// copy of the input: the value, the exact rank interval, and the
/// three-way layout of the partitioned data.
void CheckKth(std::vector<double> data, std::size_t k) {
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const KthSplit s = QuickselectKth(data, k);

  EXPECT_EQ(s.value, sorted[k]) << "k=" << k;
  const auto less = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), s.value) -
      sorted.begin());
  const auto less_equal = static_cast<std::size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), s.value) -
      sorted.begin());
  EXPECT_EQ(s.less, less);
  EXPECT_EQ(s.less_equal, less_equal);
  ASSERT_LE(s.less, k);
  ASSERT_LT(k, s.less_equal);

  // Layout invariant: strict prefix, equal run containing k, strict tail.
  for (std::size_t i = 0; i < s.less; ++i) {
    EXPECT_LT(data[i], s.value) << "i=" << i;
  }
  for (std::size_t i = s.less; i < s.less_equal; ++i) {
    EXPECT_EQ(data[i], s.value) << "i=" << i;
  }
  for (std::size_t i = s.less_equal; i < data.size(); ++i) {
    EXPECT_GT(data[i], s.value) << "i=" << i;
  }
  // The call must not change the multiset.
  std::sort(data.begin(), data.end());
  EXPECT_EQ(data, sorted);
}

TEST(QuickselectKth, EdgeRanksAcrossDistributions) {
  for (const InputKind kind :
       {InputKind::kUniform, InputKind::kZipf, InputKind::kFewDistinct,
        InputKind::kAllEqual, InputKind::kSortedAsc, InputKind::kSortedDesc}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{17}, std::size_t{257}}) {
      const std::vector<double> base = Input(kind, n, 0xABCDu);
      for (const std::size_t k :
           {std::size_t{0}, std::size_t{1}, n - 1}) {
        if (k >= n) continue;
        CheckKth(base, k);
      }
    }
  }
}

TEST(QuickselectKth, RandomRankSweep) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const auto kind = static_cast<InputKind>(rng() % 7);
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 300);
    const std::vector<double> base = Input(kind, n, rng());
    CheckKth(base, static_cast<std::size_t>(rng() % n));
  }
}

TEST(QuickselectKth, OutOfRangeRankThrows) {
  std::vector<double> data = Input(InputKind::kUniform, 8, 1);
  EXPECT_THROW(QuickselectKth(data, 8), mpisim::UsageError);
  EXPECT_THROW(QuickselectKth(data, 1000), mpisim::UsageError);
  std::vector<double> empty;
  EXPECT_THROW(QuickselectKth(empty, 0), mpisim::UsageError);
}

TEST(QuickselectSmallest, PrefixHoldsKSmallest) {
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 200);
    std::vector<double> data =
        Input(static_cast<InputKind>(rng() % 7), n, rng());
    std::vector<double> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t k = static_cast<std::size_t>(rng() % (n + 1));
    jsort::QuickselectSmallest(data, k);
    std::vector<double> prefix(data.begin(),
                               data.begin() + static_cast<std::ptrdiff_t>(k));
    std::sort(prefix.begin(), prefix.end());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(prefix[i], sorted[i]) << "k=" << k << " i=" << i;
    }
  }
}

}  // namespace
