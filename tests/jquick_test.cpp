// End-to-end Janus Quicksort: sortedness, permutation preservation and
// perfect balance over a grid of (p, n/p, input kind, transport, pivot
// policy, schedule).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "sort/checks.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::InputKind;
using jsort::JQuickConfig;
using jsort::JQuickSort;
using jsort::PivotPolicy;
using jsort::SplitSchedule;
using testutil::RunRanks;

enum class Backend { kRbc, kMpi, kIcomm };

std::shared_ptr<jsort::Transport> MakeTransport(Backend b,
                                                mpisim::Comm& world) {
  switch (b) {
    case Backend::kRbc: {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      return jsort::MakeRbcTransport(rw);
    }
    case Backend::kMpi:
      return jsort::MakeMpiTransport(world);
    case Backend::kIcomm:
      return jsort::MakeIcommTransport(world);
  }
  return nullptr;
}

/// Runs JQuick and verifies the three output invariants.
void CheckJQuick(int p, std::int64_t quota, InputKind kind, Backend backend,
                 const JQuickConfig& cfg) {
  RunRanks(p, [&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input =
        jsort::GenerateInput(kind, world.Rank(), p, quota, cfg.seed + 7);
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = MakeTransport(backend, world);
    const auto out = JQuickSort(tr, std::move(input), cfg);
    // Perfect balance: exactly quota elements on every rank.
    EXPECT_EQ(static_cast<std::int64_t>(out.size()), quota);
    // Permutation: same global multiset.
    const auto after = jsort::GlobalFingerprint(out, rw);
    EXPECT_EQ(before, after);
    // Globally sorted.
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

using GridParam = std::tuple<int, int, InputKind>;

class JQuickGrid : public ::testing::TestWithParam<GridParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, JQuickGrid,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16),  // p (any count!)
        ::testing::Values(1, 2, 7, 64),                  // n/p
        ::testing::Values(InputKind::kUniform, InputKind::kSortedAsc,
                          InputKind::kSortedDesc, InputKind::kAllEqual,
                          InputKind::kFewDistinct)));

TEST_P(JQuickGrid, SortsWithRbcTransport) {
  const auto [p, quota, kind] = GetParam();
  CheckJQuick(p, quota, kind, Backend::kRbc, JQuickConfig{});
}

class JQuickBackends : public ::testing::TestWithParam<GridParam> {};

INSTANTIATE_TEST_SUITE_P(
    SmallSweep, JQuickBackends,
    ::testing::Combine(::testing::Values(4, 7, 9),
                       ::testing::Values(8, 32),
                       ::testing::Values(InputKind::kUniform,
                                         InputKind::kFewDistinct)));

TEST_P(JQuickBackends, SortsWithMpiTransport) {
  const auto [p, quota, kind] = GetParam();
  CheckJQuick(p, quota, kind, Backend::kMpi, JQuickConfig{});
}

TEST_P(JQuickBackends, SortsWithIcommTransport) {
  const auto [p, quota, kind] = GetParam();
  CheckJQuick(p, quota, kind, Backend::kIcomm, JQuickConfig{});
}

TEST(JQuick, RandomElementPivotPolicy) {
  JQuickConfig cfg;
  cfg.pivot = PivotPolicy::kRandomElement;
  CheckJQuick(8, 32, InputKind::kUniform, Backend::kRbc, cfg);
  CheckJQuick(5, 16, InputKind::kFewDistinct, Backend::kRbc, cfg);
}

TEST(JQuick, CascadedSchedule) {
  JQuickConfig cfg;
  cfg.schedule = SplitSchedule::kCascaded;
  CheckJQuick(9, 16, InputKind::kUniform, Backend::kRbc, cfg);
  CheckJQuick(9, 16, InputKind::kUniform, Backend::kMpi, cfg);
}

TEST(JQuick, ManySeedsStayCorrect) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    JQuickConfig cfg;
    cfg.seed = seed;
    CheckJQuick(6, 10, InputKind::kUniform, Backend::kRbc, cfg);
  }
}

TEST(JQuick, GaussianAndZipfInputs) {
  CheckJQuick(8, 50, InputKind::kGaussian, Backend::kRbc, JQuickConfig{});
  CheckJQuick(8, 50, InputKind::kZipf, Backend::kRbc, JQuickConfig{});
  CheckJQuick(8, 50, InputKind::kBucketKiller, Backend::kRbc,
              JQuickConfig{});
}

TEST(JQuick, LargerRun) {
  CheckJQuick(16, 512, InputKind::kUniform, Backend::kRbc, JQuickConfig{});
}

/// Forced sparse exchange on RBC at every level. A janus rank runs the
/// sparse collectives of both its groups on one level tag, so each
/// collective's final drain must find its own members' blocks behind the
/// other group's.
class JQuickSparseRbc
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, JQuickSparseRbc,
    ::testing::Combine(::testing::Values(5, 9, 16, 32),   // p
                       ::testing::Values(16, 64, 256)));  // n/p

TEST_P(JQuickSparseRbc, SortsAcrossSeeds) {
  const auto [p, quota] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    JQuickConfig cfg;
    cfg.exchange_mode = jsort::exchange::Mode::kSparse;
    cfg.seed = seed;
    CheckJQuick(p, quota, InputKind::kUniform, Backend::kRbc, cfg);
  }
}

TEST(JQuick, DefaultConfigAboveSegmentFlip) {
  // One per-destination message may carry (2 counts + 8192 elements) * 8
  // bytes, above the default 64 KiB segment limit: kAuto sends every
  // level's exchange over the sparse collective, janus overlaps included.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    JQuickConfig cfg;
    cfg.seed = seed;
    CheckJQuick(32, 8192, InputKind::kUniform, Backend::kRbc, cfg);
  }
}

TEST(JQuick, PaddedHandlesUnevenInput) {
  // Rank r contributes r elements: n is not a multiple of p and per-rank
  // sizes differ.
  constexpr int kP = 5;
  RunRanks(kP, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(), kP,
                                      world.Rank(), 3);
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = MakeTransport(Backend::kRbc, world);
    const auto out = jsort::JQuickSortPadded(tr, std::move(input));
    const auto after = jsort::GlobalFingerprint(out, rw);
    EXPECT_EQ(before, after);
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

TEST(JQuick, StatsReportJanusAndLevels) {
  constexpr int kP = 8;
  RunRanks(kP, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(), kP,
                                      64, 11);
    auto tr = MakeTransport(Backend::kRbc, world);
    jsort::JQuickStats stats;
    const auto out = JQuickSort(tr, std::move(input), JQuickConfig{}, &stats);
    EXPECT_EQ(out.size(), 64u);
    EXPECT_GE(stats.distributed_levels, 1);
    EXPECT_GE(stats.base_tasks_1p + stats.base_tasks_2p, 1);
  });
}

TEST(JQuick, SingleRankSortsLocally) {
  CheckJQuick(1, 100, InputKind::kUniform, Backend::kRbc, JQuickConfig{});
}

TEST(JQuick, TwoRanksUseBaseCaseOnly) {
  RunRanks(2, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(), 2,
                                      32, 5);
    auto tr = MakeTransport(Backend::kRbc, world);
    jsort::JQuickStats stats;
    const auto out = JQuickSort(tr, std::move(input), JQuickConfig{}, &stats);
    EXPECT_EQ(stats.distributed_levels, 0);
    EXPECT_EQ(stats.base_tasks_2p, 1);
    EXPECT_EQ(out.size(), 32u);
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

}  // namespace
