// JQuickSortPadded: the arbitrary-n front end, swept over irregular
// distributions (the paper assumes n = p * (n/p); padding generalizes it),
// and genuine +inf inputs, which equal the padding, on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "sort/checks.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::InputKind;
using testutil::RunRanks;

/// Per-rank input size patterns.
enum class SizePattern { kRampUp, kOneHot, kRandomish, kEmptyMiddle };

std::int64_t SizeOfRank(SizePattern pat, int rank, int p) {
  switch (pat) {
    case SizePattern::kRampUp:
      return rank;  // 0, 1, 2, ...
    case SizePattern::kOneHot:
      return rank == p / 2 ? 37 : 0;
    case SizePattern::kRandomish:
      return (rank * 7919) % 23;
    case SizePattern::kEmptyMiddle:
      return (rank > 0 && rank < p - 1) ? 0 : 11;
  }
  return 0;
}

class PaddedSweep
    : public ::testing::TestWithParam<std::tuple<int, SizePattern, InputKind>> {
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, PaddedSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 11, 19),
                       ::testing::Values(SizePattern::kRampUp,
                                         SizePattern::kOneHot,
                                         SizePattern::kRandomish,
                                         SizePattern::kEmptyMiddle),
                       ::testing::Values(InputKind::kUniform,
                                         InputKind::kFewDistinct)));

TEST_P(PaddedSweep, SortsIrregularDistributions) {
  const auto [p, pat, kind] = GetParam();
  RunRanks(p, [&, p = p, pat = pat, kind = kind](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    const std::int64_t mine = SizeOfRank(pat, world.Rank(), p);
    auto input = jsort::GenerateInput(kind, world.Rank(), p, mine, 19);
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = jsort::MakeRbcTransport(rw);
    jsort::JQuickStats stats;
    const auto out =
        jsort::JQuickSortPadded(tr, std::move(input), {}, &stats);
    EXPECT_EQ(before, jsort::GlobalFingerprint(out, rw));
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
    // Every pattern pads to a quota of at most 37, where JQuick finishes
    // tasks of up to 14 ranks directly: 19 ranks split, padding included.
    if (p == 19) {
      EXPECT_GE(stats.distributed_levels, 1);
    }
  });
}

TEST(Padded, AllEmptyInputsYieldAllEmptyOutputs) {
  RunRanks(4, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const auto out = jsort::JQuickSortPadded(tr, {});
    EXPECT_TRUE(out.empty());
  });
}

TEST(Padded, InfinityInputsSurviveSentinelStripping) {
  // +inf is the padding sentinel; genuine +inf inputs must not be lost.
  // The contract strips *trailing* padding only when the caller's own
  // data does not contain +inf; with +inf inputs the count may shrink,
  // so the documented usage is finite inputs. Verify finite data near
  // DBL_MAX survives exactly.
  RunRanks(3, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    std::vector<double> input;
    if (world.Rank() == 0) {
      input = {std::numeric_limits<double>::max(), 1.0,
               -std::numeric_limits<double>::max()};
    }
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const auto out = jsort::JQuickSortPadded(tr, std::move(input));
    EXPECT_EQ(before, jsort::GlobalFingerprint(out, rw));
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

class PaddedInfinity : public ::testing::TestWithParam<jsort::Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, PaddedInfinity,
                         ::testing::Values(jsort::Backend::kRbc,
                                           jsort::Backend::kMpi,
                                           jsort::Backend::kIcomm));

TEST_P(PaddedInfinity, GenuineInfinitiesSurvive) {
  constexpr int kRanks = 4;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Each case: every rank's input.
  const std::vector<std::vector<std::vector<double>>> cases = {
      {{1.0, kInf}, {2.0}, {3.0}, {4.0}},       // one +inf among finites
      {{}, {}, {}, {}},                         // all empty
      {{0.5}, {kInf, kInf, kInf}, {}, {-1.0, 7.0}},  // a slice of +inf
  };
  for (const auto& inputs : cases) {
    std::vector<double> expect;
    std::size_t quota = 0;
    for (const auto& in : inputs) {
      expect.insert(expect.end(), in.begin(), in.end());
      quota = std::max(quota, in.size());
    }
    std::sort(expect.begin(), expect.end());
    testutil::PerRank<std::vector<double>> outs(kRanks);
    RunRanks(kRanks, [&](mpisim::Comm& world) {
      auto tr = jsort::MakeTransport(GetParam(), world);
      outs.Set(world.Rank(), jsort::JQuickSortPadded(
                                 tr, inputs[static_cast<std::size_t>(
                                         world.Rank())]));
    });
    std::vector<double> got;
    for (int r = 0; r < kRanks; ++r) {
      // Perfect balance: rank r keeps global slots [r * quota, (r + 1) *
      // quota) of the input's count.
      const std::size_t first = static_cast<std::size_t>(r) * quota;
      const std::size_t keep =
          expect.size() > first ? std::min(quota, expect.size() - first) : 0;
      EXPECT_EQ(outs[r].size(), keep) << "rank " << r;
      got.insert(got.end(), outs[r].begin(), outs[r].end());
    }
    EXPECT_EQ(got, expect) << jsort::BackendName(GetParam());
  }
}

}  // namespace
