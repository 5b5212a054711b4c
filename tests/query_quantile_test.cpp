// BuildQuantileSummary on all three split backends: the distributed
// summary is byte-identical to the sequential oracle over the
// concatenated input (boundaries, counts, total), every query answer
// honors its own declared rank-error bound, and the bound tightens with
// refinement passes. The build's collectives: the count and the range in
// one sweep, one reduction per pass, and clocks and counters that repeat
// run to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "forwarding_transport.hpp"
#include "query/quantile.hpp"
#include "sort/checks.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::Backend;
using jsort::InputKind;
using jsort::query::BuildQuantileSummary;
using jsort::query::BuildQuantileSummaryLocal;
using jsort::query::QuantileConfig;
using jsort::query::QuantileStats;
using jsort::query::QuantileSummary;
using testutil::CollectiveCall;
using testutil::PerRank;
using testutil::RunRanks;

std::vector<double> Concat(InputKind kind, int p, std::int64_t per_rank,
                           std::uint64_t seed) {
  std::vector<double> all;
  for (int r = 0; r < p; ++r) {
    const auto slice = jsort::GenerateInput(kind, r, p, per_rank, seed);
    all.insert(all.end(), slice.begin(), slice.end());
  }
  return all;
}

/// True global rank interval of `value` in sorted `oracle`.
std::int64_t TrueRankDistance(const std::vector<double>& oracle, double q,
                              double value) {
  const auto n = static_cast<std::int64_t>(oracle.size());
  const auto target = static_cast<std::int64_t>(
      std::llround(q * static_cast<double>(n - 1)));
  const auto lo = static_cast<std::int64_t>(
      std::lower_bound(oracle.begin(), oracle.end(), value) - oracle.begin());
  const auto hi = static_cast<std::int64_t>(
      std::upper_bound(oracle.begin(), oracle.end(), value) - oracle.begin());
  if (target < lo) return lo - target;
  if (target > hi) return target - hi;
  return 0;
}

class QuantileSweep : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, QuantileSweep,
                         ::testing::Values(Backend::kRbc, Backend::kMpi,
                                           Backend::kIcomm));

TEST_P(QuantileSweep, ByteIdenticalToSequentialOracle) {
  const Backend backend = GetParam();
  constexpr int kRanks = 6;
  constexpr std::int64_t kPerRank = 41;
  for (const InputKind kind :
       {InputKind::kUniform, InputKind::kZipf, InputKind::kAllEqual,
        InputKind::kGaussian}) {
    const std::vector<double> all = Concat(kind, kRanks, kPerRank, 0x9A1Bu);
    QuantileConfig cfg;
    cfg.bins = 16;
    cfg.refinements = 2;
    const QuantileSummary expect = BuildQuantileSummaryLocal(all, cfg);

    PerRank<std::vector<double>> boundaries(kRanks);
    PerRank<std::vector<std::int64_t>> counts(kRanks);
    PerRank<std::int64_t> totals(kRanks);
    RunRanks(kRanks, [&](mpisim::Comm& world) {
      auto tr = jsort::MakeTransport(backend, world);
      const auto local =
          jsort::GenerateInput(kind, world.Rank(), kRanks, kPerRank, 0x9A1Bu);
      const QuantileSummary s = BuildQuantileSummary(*tr, local, cfg);
      boundaries.Set(world.Rank(), s.boundaries());
      counts.Set(world.Rank(), s.counts());
      totals.Set(world.Rank(), s.total());
    });
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(boundaries[r], expect.boundaries())
          << jsort::InputKindName(kind) << " rank " << r;
      EXPECT_EQ(counts[r], expect.counts())
          << jsort::InputKindName(kind) << " rank " << r;
      EXPECT_EQ(totals[r], expect.total());
    }
  }
}

TEST_P(QuantileSweep, AnswersHonorTheirErrorBound) {
  const Backend backend = GetParam();
  constexpr int kRanks = 4;
  constexpr std::int64_t kPerRank = 200;
  std::vector<double> oracle =
      Concat(InputKind::kUniform, kRanks, kPerRank, 0x44Cu);
  std::sort(oracle.begin(), oracle.end());

  PerRank<int> ok(kRanks);
  RunRanks(kRanks, [&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(backend, world);
    const auto local = jsort::GenerateInput(InputKind::kUniform, world.Rank(),
                                            kRanks, kPerRank, 0x44Cu);
    const QuantileSummary s = BuildQuantileSummary(*tr, local);
    int good = 0;
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      const double v = s.Query(q);
      const std::int64_t bound = s.RankErrorBound(q);
      if (TrueRankDistance(oracle, q, v) <= bound &&
          jsort::VerifyQuantile(*tr, local, q, v, bound)) {
        ++good;
      }
    }
    ok.Set(world.Rank(), good);
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(ok[r], 8);
}

TEST(QueryQuantile, RefinementTightensEquiDepth) {
  // Equi-width bucketing over a Gaussian's full range crams the center
  // buckets; the equi-depth refinement pass must cut the worst-case
  // bucket population (= the error bound at the quantile it covers).
  const std::vector<double> all =
      jsort::GenerateInput(InputKind::kGaussian, 0, 1, 4096, 0xEEu);
  QuantileConfig coarse;
  coarse.bins = 32;
  coarse.refinements = 0;
  QuantileConfig refined = coarse;
  refined.refinements = 2;
  const QuantileSummary s0 = BuildQuantileSummaryLocal(all, coarse);
  const QuantileSummary s2 = BuildQuantileSummaryLocal(all, refined);
  const auto worst = [](const QuantileSummary& s) {
    std::int64_t w = 0;
    for (const std::int64_t c : s.counts()) w = std::max(w, c);
    return w;
  };
  EXPECT_LT(worst(s2), worst(s0));
  EXPECT_EQ(s0.total(), 4096);
  EXPECT_EQ(s2.total(), 4096);
}

TEST(QueryQuantile, DegenerateInputs) {
  // All-equal collapses every boundary onto the single value.
  const std::vector<double> equal(64, 3.25);
  const QuantileSummary s = BuildQuantileSummaryLocal(equal);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(s.Query(q), 3.25);
  }
  // Empty input answers 0 with a zero bound.
  const QuantileSummary e = BuildQuantileSummaryLocal({});
  EXPECT_EQ(e.total(), 0);
  EXPECT_EQ(e.Query(0.5), 0.0);
  EXPECT_EQ(e.RankErrorBound(0.5), 0);

  // Distributed: some ranks empty, result still exact vs the oracle.
  constexpr int kRanks = 4;
  std::vector<double> all;
  for (int r = 0; r < kRanks; ++r) {
    const auto slice = jsort::GenerateInput(InputKind::kGaussian, r, kRanks,
                                            r == 0 ? 0 : 50, 0x5EEDu);
    all.insert(all.end(), slice.begin(), slice.end());
  }
  const QuantileSummary expect = BuildQuantileSummaryLocal(all);
  PerRank<int> same(kRanks);
  RunRanks(kRanks, [&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(Backend::kRbc, world);
    const auto local =
        jsort::GenerateInput(InputKind::kGaussian, world.Rank(), kRanks,
                             world.Rank() == 0 ? 0 : 50, 0x5EEDu);
    const QuantileSummary s = BuildQuantileSummary(*tr, local);
    same.Set(world.Rank(), s.boundaries() == expect.boundaries() &&
                                   s.counts() == expect.counts() &&
                                   s.total() == expect.total()
                               ? 1
                               : 0);
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(same[r], 1);
}

TEST(QueryQuantile, CountAndRangeShareOneSweep) {
  constexpr int kRanks = 5;
  constexpr std::int64_t kPerRank = 60;
  const std::vector<double> all =
      Concat(InputKind::kZipf, kRanks, kPerRank, 0x0Bu);
  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    for (const int refinements : {0, 1, 3}) {
      QuantileConfig cfg;
      cfg.bins = 16;
      cfg.refinements = refinements;
      const QuantileSummary expect = BuildQuantileSummaryLocal(all, cfg);
      PerRank<int> checked(kRanks);
      RunRanks(kRanks, [&](mpisim::Comm& world) {
        testutil::RecordingTransport tr(jsort::MakeTransport(backend, world));
        const auto local = jsort::GenerateInput(
            InputKind::kZipf, world.Rank(), kRanks, kPerRank, 0x0Bu);
        QuantileStats st;
        const QuantileSummary s = BuildQuantileSummary(tr, local, cfg, &st);
        // 1 + (refinements + 1) collectives: the sweep, whose rider is
        // {min, -max}, then one Ireduce + Ibcast allreduce per pass.
        const int passes = refinements + 1;
        EXPECT_EQ(st.reductions, 1 + passes);
        const std::vector<CollectiveCall>& calls = tr.calls();
        ASSERT_EQ(static_cast<int>(calls.size()), 1 + 2 * passes);
        EXPECT_EQ(calls[0].kind, CollectiveCall::kIscanWithTotal);
        EXPECT_EQ(calls[0].rider.count, 2);
        EXPECT_EQ(calls[0].rider.dt, jsort::Datatype::kFloat64);
        EXPECT_EQ(calls[0].rider.op, jsort::ReduceOp::kMin);
        EXPECT_EQ(tr.Count(CollectiveCall::kIscanWithTotal), 1);
        EXPECT_EQ(tr.Count(CollectiveCall::kIreduce), passes);
        EXPECT_EQ(tr.Count(CollectiveCall::kIbcast), passes);
        EXPECT_EQ(s.boundaries(), expect.boundaries());
        EXPECT_EQ(s.counts(), expect.counts());
        EXPECT_EQ(s.total(), expect.total());
        checked.Set(world.Rank(), 1);
      });
      for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(checked[r], 1) << jsort::BackendName(backend)
                                 << " refinements=" << refinements;
      }
    }
  }
}

TEST(QueryQuantile, ClocksAndStatsRepeatOverFreshRuntimes) {
  for (const auto& [name, opts] : testutil::SmallMachines()) {
    const int p = opts.num_ranks;
    auto run = [&, &opts = opts] {
      return testutil::EndFootprints(opts, [&](mpisim::Comm& world) {
        auto tr = jsort::MakeTransport(Backend::kRbc, world);
        const auto local = jsort::GenerateInput(
            InputKind::kGaussian, world.Rank(), p, 80, 0x7E7u);
        const std::vector<std::int64_t> counts =
            BuildQuantileSummary(*tr, local).counts();
        return std::vector<double>(counts.begin(), counts.end());
      });
    };
    const auto first = run();
    for (int again = 0; again < 2; ++again) {
      EXPECT_EQ(run(), first) << name;
    }
  }
}

}  // namespace
