// Statistical properties from the paper's analysis (Section VII-A):
// recursion depth O(log p) w.h.p., perfect balance after every level
// (asserted internally by the driver on every task creation), and janus
// behaviour on non-power-of-two process counts.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "sort/checks.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::InputKind;
using jsort::JQuickConfig;
using jsort::JQuickStats;
using testutil::RunRanks;

/// Runs JQuick and returns the max distributed level over ranks.
int MaxLevels(int p, std::int64_t quota, const JQuickConfig& cfg) {
  int result = 0;
  RunRanks(p, [&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(), p,
                                      quota, cfg.seed * 1337);
    auto tr = jsort::MakeRbcTransport(rw);
    JQuickStats stats;
    jsort::JQuickSort(tr, std::move(input), cfg, &stats);
    int local = stats.distributed_levels;
    int global = 0;
    mpisim::Allreduce(&local, &global, 1, mpisim::Datatype::kInt32,
                      mpisim::ReduceOp::kMax, world);
    if (world.Rank() == 0) result = global;
  });
  return result;
}

TEST(JQuickAnalysis, MedianPivotDepthIsLogarithmic) {
  // Lemma 2: O(log p) levels w.h.p. With median-of-samples pivots the
  // constant is small; assert depth <= 2*log2(p) + 3 over several seeds.
  // At n/p = 2,048 the rule finishes only tasks of up to 4 ranks
  // directly, so the recursion runs down to them.
  for (int p : {8, 16, 32}) {
    const int bound = static_cast<int>(2.0 * std::log2(p)) + 3;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      JQuickConfig cfg;
      cfg.seed = seed;
      const int levels = MaxLevels(p, 2048, cfg);
      EXPECT_LE(levels, bound) << "p=" << p << " seed=" << seed;
      EXPECT_GE(levels, static_cast<int>(std::log2(p)) - 1);
    }
  }
}

TEST(JQuickAnalysis, RandomPivotDepthWithinWhpBound) {
  // The analysed bound is 20*log_{8/7}(p); in practice random pivots land
  // well under it. Use the hard bound as the assertion. At n/p = 2,048
  // the rule finishes only tasks of up to 4 ranks directly.
  for (int p : {8, 16}) {
    const int bound =
        static_cast<int>(20.0 * std::log(p) / std::log(8.0 / 7.0));
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      JQuickConfig cfg;
      cfg.pivot = jsort::PivotPolicy::kRandomElement;
      cfg.seed = seed;
      const int levels = MaxLevels(p, 2048, cfg);
      EXPECT_LE(levels, bound) << "p=" << p << " seed=" << seed;
      EXPECT_GE(levels, 1) << "p=" << p << " seed=" << seed;
    }
  }
}

TEST(JQuickAnalysis, BalanceHoldsOnEveryLevelByConstruction) {
  // The driver throws if any task's local data differs from its capacity
  // (MakeChild check) -- a run across duplicate-heavy and skewed inputs
  // exercises that internal invariant at every level. At n/p = 40 the
  // rule finishes tasks of up to 14 ranks directly, so 30 ranks split.
  constexpr int kP = 30;
  for (auto kind : {InputKind::kFewDistinct, InputKind::kZipf,
                    InputKind::kBucketKiller, InputKind::kSortedDesc}) {
    RunRanks(kP, [&](mpisim::Comm& world) {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      auto input =
          jsort::GenerateInput(kind, world.Rank(), kP, 40, 77);
      auto tr = jsort::MakeRbcTransport(rw);
      JQuickStats stats;
      const auto out =
          jsort::JQuickSort(tr, std::move(input), JQuickConfig{}, &stats);
      EXPECT_GE(stats.distributed_levels, 1);
      const auto bal = jsort::GlobalBalance(out, rw);
      EXPECT_EQ(bal.min_count, 40);
      EXPECT_EQ(bal.max_count, 40);
    });
  }
}

TEST(JQuickAnalysis, JanusProcessesAppearOffPowerOfTwoSplits) {
  // With p=9 and uniform data, split points almost never align with
  // process boundaries, so some rank must have served as a janus. At
  // n/p = 1,024 the rule finishes only tasks of up to 6 ranks directly,
  // so the 9 ranks split.
  RunRanks(9, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(), 9,
                                      1024, 3);
    auto tr = jsort::MakeRbcTransport(rw);
    JQuickStats stats;
    jsort::JQuickSort(tr, std::move(input), JQuickConfig{}, &stats);
    std::int64_t mine = stats.janus_episodes;
    std::int64_t total = 0;
    mpisim::Allreduce(&mine, &total, 1, mpisim::Datatype::kInt64,
                      mpisim::ReduceOp::kSum, world);
    if (world.Rank() == 0) {
      EXPECT_GE(total, 1);
    }
  });
}

TEST(JQuickAnalysis, ExchangeVolumeIsBoundedByQuotaPerLevel) {
  // Theorem 1: each process sends at most n/p elements per level (minus
  // what it keeps). Check total sent <= levels * quota plus the direct
  // finish, which sends each of its slices to the s-1 other members of
  // its task: at most (kDirectMax - 1) * quota over a rank's direct tasks,
  // whose capacities sum to at most the quota. At n/p = 1,024 the rule
  // finishes tasks of up to kDirectMax ranks directly, so 8 ranks split.
  constexpr int kP = 8;
  constexpr std::int64_t kQuota = 1024;
  constexpr int kDirectMax = 6;
  RunRanks(kP, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(), kP,
                                      kQuota, 9);
    auto tr = jsort::MakeRbcTransport(rw);
    JQuickStats stats;
    jsort::JQuickSort(tr, std::move(input), JQuickConfig{}, &stats);
    EXPECT_GE(stats.distributed_levels, 1);
    EXPECT_LE(stats.elements_sent,
              static_cast<std::int64_t>(stats.distributed_levels) * kQuota +
                  (kDirectMax - 1) * kQuota);
  });
}

TEST(JQuickAnalysis, SplitTreeRepeatsAcrossRuntimes) {
  // Every task draws its pivot candidates from a generator seeded by its
  // identity, and the coalesced exchange unpacks in source order, so one
  // sort splits alike in every fresh runtime: each rank reports the same
  // levels, janus episodes, tasks and traffic. Its end clock may still
  // differ, since wildcard receives are charged in arrival order.
  constexpr int kP = 64;
  constexpr int kRuns = 5;
  const auto key = [](const JQuickStats& s) {
    return std::make_tuple(s.distributed_levels, s.janus_episodes,
                           s.base_tasks_1p, s.direct_tasks, s.elements_sent,
                           s.messages_sent, s.segments_sent);
  };
  for (const std::int64_t quota : {4, 256, 4096}) {
    std::vector<std::vector<JQuickStats>> runs;
    for (int run = 0; run < kRuns; ++run) {
      testutil::PerRank<JQuickStats> stats(kP);
      RunRanks(kP, [&](mpisim::Comm& world) {
        rbc::Comm rw;
        rbc::Create_RBC_Comm(world, &rw);
        JQuickStats st;
        jsort::JQuickSort(jsort::MakeRbcTransport(rw),
                          jsort::GenerateInput(InputKind::kUniform,
                                               world.Rank(), kP, quota, 1),
                          JQuickConfig{}, &st);
        stats.Set(world.Rank(), st);
      });
      runs.push_back(stats.Values());
    }
    EXPECT_GE(runs[0][0].distributed_levels, 1) << "n/p=" << quota;
    for (int run = 1; run < kRuns; ++run) {
      for (int r = 0; r < kP; ++r) {
        EXPECT_EQ(key(runs[static_cast<std::size_t>(run)]
                          [static_cast<std::size_t>(r)]),
                  key(runs[0][static_cast<std::size_t>(r)]))
            << "n/p=" << quota << " run " << run << " rank " << r;
      }
    }
  }
}

TEST(JQuickAnalysis, DeterministicForFixedSeed) {
  // Same seed, same input -> identical output on every rank.
  constexpr int kP = 6;
  testutil::PerRank<std::vector<double>> first(kP), second(kP);
  for (int round = 0; round < 2; ++round) {
    RunRanks(kP, [&](mpisim::Comm& world) {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(),
                                        kP, 32, 55);
      auto tr = jsort::MakeRbcTransport(rw);
      JQuickConfig cfg;
      cfg.seed = 99;
      auto out = jsort::JQuickSort(tr, std::move(input), cfg);
      (round == 0 ? first : second).Set(world.Rank(), std::move(out));
    });
  }
  for (int r = 0; r < kP; ++r) EXPECT_EQ(first[r], second[r]);
}

}  // namespace
