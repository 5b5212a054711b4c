// The sample sorts' splitter selection (SelectSplitters): the price of a
// second sampling round (SecondRoundSamples) at the shapes it must and must
// not pay at, the collectives each round starts, the equidistant rule it
// keeps on equal local sizes, the size weights that spread data held by a
// few ranks, and the balance the larger sample buys -- on all three split
// backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "forwarding_transport.hpp"
#include "sort/multilevel_sort.hpp"
#include "sort/sample_sort.hpp"
#include "sort/sampling.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::Backend;
using jsort::BackendName;
using jsort::InputKind;
using jsort::SecondRoundSamples;
using jsort::Transport;
using testutil::CollectiveCall;
using testutil::PerRank;
using testutil::RecordingTransport;
using testutil::RunRanks;

constexpr int kFirstRound = 8;  // SampleSortConfig{}.oversample

/// bench_topo's two-level model: network alpha 25x, beta 4x.
mpisim::CostModel EightByEight() {
  mpisim::CostModel c;
  c.inter_alpha = 25.0 * c.alpha;
  c.inter_beta = 4.0 * c.beta;
  return c;
}

using Sorter = std::function<std::vector<double>(
    const std::shared_ptr<Transport>&, std::vector<double>, std::uint64_t)>;

std::vector<double> RunSampleSort(const std::shared_ptr<Transport>& tr,
                                  std::vector<double> in,
                                  std::uint64_t seed) {
  jsort::SampleSortConfig cfg;
  cfg.seed = seed;
  return jsort::SampleSort(tr, std::move(in), cfg);
}

std::vector<double> RunMultilevel(const std::shared_ptr<Transport>& tr,
                                  std::vector<double> in,
                                  std::uint64_t seed) {
  jsort::MultilevelConfig cfg;
  cfg.seed = seed;
  return jsort::MultilevelSampleSort(tr, std::move(in), cfg);
}

/// Sorts `inputs` (one slice per rank) on a fresh runtime; returns every
/// rank's output slice.
std::vector<std::vector<double>> SortSlices(
    Backend backend, const std::vector<std::vector<double>>& inputs,
    const Sorter& sort, std::uint64_t seed) {
  const int p = static_cast<int>(inputs.size());
  PerRank<std::vector<double>> out(p);
  RunRanks(p, [&](mpisim::Comm& world) {
    const int me = world.Rank();
    out.Set(me, sort(jsort::MakeTransport(backend, world),
                     inputs[static_cast<std::size_t>(me)], seed));
  });
  return out.Values();
}

/// The output slices concatenate to the sorted input.
void ExpectSortedPermutation(const std::vector<std::vector<double>>& inputs,
                             const std::vector<std::vector<double>>& outputs,
                             const std::string& label) {
  std::vector<double> want;
  std::vector<double> got;
  for (const auto& s : inputs) want.insert(want.end(), s.begin(), s.end());
  for (const auto& s : outputs) got.insert(got.end(), s.begin(), s.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << label;
}

std::int64_t LargestSlice(const std::vector<std::vector<double>>& slices) {
  std::size_t most = 0;
  for (const auto& s : slices) most = std::max(most, s.size());
  return static_cast<std::int64_t>(most);
}

// ------------------------------------------------------------- the price

TEST(SecondRoundPrice, PaysAtLargeSlicesOnAFlatMachine) {
  // samplesort_large's shape: p = 4, n/p = 2^17. The round-2 count is a
  // power of two of at least twice round 1's.
  const int b = SecondRoundSamples(4, 4, 4 << 17, kFirstRound, {});
  EXPECT_GE(b, 2 * kFirstRound);
  EXPECT_EQ(b & (b - 1), 0);
}

TEST(SecondRoundPrice, OneRoundWhereTheBucketsAreSmall) {
  EXPECT_EQ(SecondRoundSamples(4, 4, 4 * 4096, kFirstRound, {}), 0);
  EXPECT_EQ(SecondRoundSamples(64, 64, 64 * 4096, kFirstRound, {}), 0);
  // bench_topo's 8x8 machine: the network alpha prices the rounds.
  for (const std::int64_t per_rank : {1024, 16384}) {
    EXPECT_EQ(SecondRoundSamples(64, 64, 64 * per_rank, kFirstRound,
                                 EightByEight()),
              0)
        << per_rank;
  }
  // Every shape of the service mix: width <= 8 and n <= 2,048, with the
  // single-level (k = p) and multilevel (k <= p) branching.
  for (int p = 2; p <= 8; ++p) {
    for (int k = 2; k <= p; ++k) {
      for (std::int64_t n = 0; n <= 2048; ++n) {
        ASSERT_EQ(SecondRoundSamples(p, k, n, kFirstRound, {}), 0)
            << "p=" << p << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(SecondRoundPrice, NoRoundWithoutDataOrBuckets) {
  EXPECT_EQ(SecondRoundSamples(4, 4, 0, kFirstRound, {}), 0);
  EXPECT_EQ(SecondRoundSamples(1, 2, 1 << 30, kFirstRound, {}), 0);
  EXPECT_EQ(SecondRoundSamples(4, 1, 1 << 30, kFirstRound, {}), 0);
}

// ------------------------------------------------------------- the rounds

class SelectionRounds : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, SelectionRounds,
                         ::testing::Values(Backend::kRbc, Backend::kMpi,
                                           Backend::kIcomm),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

TEST_P(SelectionRounds, OneGatherAndOneBcastPerRound) {
  const Backend backend = GetParam();
  constexpr int kP = 4;
  for (const std::int64_t per_rank : {4096, 1 << 15}) {
    const int rounds =
        SecondRoundSamples(kP, kP, kP * per_rank, kFirstRound, {}) > 0 ? 2 : 1;
    EXPECT_EQ(rounds, per_rank == 4096 ? 1 : 2) << per_rank;
    RunRanks(kP, [&](mpisim::Comm& world) {
      auto tr = std::make_shared<RecordingTransport>(
          jsort::MakeTransport(backend, world));
      jsort::SampleSort(tr, jsort::GenerateInput(InputKind::kUniform,
                                                 world.Rank(), kP, per_rank,
                                                 5));
      EXPECT_EQ(tr->Count(CollectiveCall::kIgather), rounds) << per_rank;
      EXPECT_EQ(tr->Count(CollectiveCall::kIbcast), rounds) << per_rank;
    });
  }
}

TEST_P(SelectionRounds, EqualSizesInOneRoundKeepTheEquidistantSplitters) {
  // Round 1's weights are all equal, so splitter i is all[i * |all| / k]
  // of the sorted gathered sample, the rule before the weights.
  const Backend backend = GetParam();
  constexpr std::int64_t kPerRank = 4096;
  for (const auto& shape : {std::pair{4, 4}, std::pair{8, 3}}) {
    const int p = shape.first;
    const int k = shape.second;
    ASSERT_EQ(SecondRoundSamples(p, k, p * kPerRank, kFirstRound, {}), 0);
    PerRank<std::vector<double>> drawn(p);
    PerRank<std::vector<double>> picked(p);
    RunRanks(p, [&](mpisim::Comm& world) {
      const int me = world.Rank();
      const auto local = jsort::GenerateInput(InputKind::kGaussian, me, p,
                                              kPerRank, 9);
      std::mt19937_64 rng(100 + static_cast<std::uint64_t>(me));
      std::mt19937_64 twin = rng;
      std::vector<double> mine(kFirstRound);
      jsort::DrawSamples(local, kFirstRound, mine.data(), twin);
      drawn.Set(me, mine);
      auto tr = jsort::MakeTransport(backend, world);
      picked.Set(me,
                 jsort::SelectSplitters(*tr, local, kFirstRound, k, 77, rng));
    });
    std::vector<double> all;
    for (const auto& s : drawn.Values()) {
      all.insert(all.end(), s.begin(), s.end());
    }
    std::sort(all.begin(), all.end());
    std::vector<double> want;
    for (int i = 1; i < k; ++i) {
      want.push_back(all[static_cast<std::size_t>(i) * all.size() / k]);
    }
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(picked[r], want) << "p=" << p << " k=" << k << " rank " << r;
    }
  }
}

// ------------------------------------------------ data held by one rank

class DataOnOneRank
    : public ::testing::TestWithParam<std::tuple<Backend, bool, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Sorters, DataOnOneRank,
    ::testing::Combine(::testing::Values(Backend::kRbc, Backend::kMpi,
                                         Backend::kIcomm),
                       ::testing::Bool(), ::testing::Values(4, 8)),
    [](const auto& info) {
      return std::string(BackendName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_multilevel" : "_samplesort") +
             "_p" + std::to_string(std::get<2>(info.param));
    });

TEST_P(DataOnOneRank, IsSpreadOverMostRanks) {
  // All N elements on one rank: every other rank samples +inf, which
  // must weigh nothing, or every splitter is +inf and the holder keeps
  // all N.
  const auto [backend, multilevel, p] = GetParam();
  constexpr std::int64_t kN = std::int64_t{1} << 14;
  for (const int holder : {0, p / 2}) {
    std::vector<std::vector<double>> inputs(static_cast<std::size_t>(p));
    inputs[static_cast<std::size_t>(holder)] =
        jsort::GenerateInput(InputKind::kUniform, 0, 1, kN, 31);
    const auto out = SortSlices(backend, inputs,
                                multilevel ? Sorter(RunMultilevel)
                                           : Sorter(RunSampleSort),
                                3);
    const std::string label = "holder " + std::to_string(holder);
    ExpectSortedPermutation(inputs, out, label);
    EXPECT_LE(LargestSlice(out), 3 * kN / 4) << label;
    const auto holding = std::count_if(
        out.begin(), out.end(), [](const auto& s) { return !s.empty(); });
    EXPECT_GT(2 * holding, p) << label;
  }
}

// ----------------------------------------------------------- the balance

class SampleSortBalance
    : public ::testing::TestWithParam<std::tuple<Backend, InputKind>> {};

INSTANTIATE_TEST_SUITE_P(
    Inputs, SampleSortBalance,
    ::testing::Combine(::testing::Values(Backend::kRbc, Backend::kMpi,
                                         Backend::kIcomm),
                       ::testing::Values(InputKind::kUniform,
                                         InputKind::kGaussian)),
    [](const auto& info) {
      return std::string(BackendName(std::get<0>(info.param))) + "_" +
             jsort::InputKindName(std::get<1>(info.param));
    });

TEST_P(SampleSortBalance, LargestSliceWithinTwentyPercentOfTheMean) {
  // p = 4, n/p = 2^16 takes the second round; 8 samples per rank alone
  // leave the largest slice above 1.2 n/p in 15 of these 20 runs, at
  // most 1.8 n/p.
  const auto [backend, kind] = GetParam();
  constexpr int kP = 4;
  constexpr std::int64_t kPerRank = std::int64_t{1} << 16;
  ASSERT_GT(SecondRoundSamples(kP, kP, kP * kPerRank, kFirstRound, {}), 0);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::vector<std::vector<double>> inputs;
    for (int r = 0; r < kP; ++r) {
      inputs.push_back(jsort::GenerateInput(kind, r, kP, kPerRank, seed));
    }
    const auto out = SortSlices(backend, inputs, RunSampleSort, seed);
    const std::string label = "seed " + std::to_string(seed);
    ExpectSortedPermutation(inputs, out, label);
    EXPECT_LE(static_cast<double>(LargestSlice(out)),
              1.2 * static_cast<double>(kPerRank))
        << label;
  }
}

}  // namespace
