// DistributedSelect on all three split backends: exact agreement with
// the sequential oracle over the concatenated input, exact global rank
// intervals, duplicate-heavy and all-equal inputs, uneven and empty
// local slices, and bit-identical answers across backends. Its
// collectives: one IscanWithTotal sweep per round and nothing else, few
// of them, and clocks and counters that repeat run to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "forwarding_transport.hpp"
#include "mpisim/error.hpp"
#include "query/select.hpp"
#include "sort/checks.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::Backend;
using jsort::InputKind;
using jsort::query::DistributedSelect;
using jsort::query::SelectResult;
using jsort::query::SelectStats;
using testutil::CollectiveCall;
using testutil::PerRank;
using testutil::RecordingTransport;
using testutil::RunRanks;

/// The global input as the concatenation of every rank's slice.
std::vector<double> Concat(InputKind kind, int p, std::int64_t per_rank,
                           std::uint64_t seed) {
  std::vector<double> all;
  for (int r = 0; r < p; ++r) {
    const auto slice = jsort::GenerateInput(kind, r, p, per_rank, seed);
    all.insert(all.end(), slice.begin(), slice.end());
  }
  return all;
}

class SelectSweep : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, SelectSweep,
                         ::testing::Values(Backend::kRbc, Backend::kMpi,
                                           Backend::kIcomm));

TEST_P(SelectSweep, MatchesSequentialOracleAcrossDistributions) {
  const Backend backend = GetParam();
  constexpr int kRanks = 6;
  constexpr std::int64_t kPerRank = 37;
  for (const InputKind kind :
       {InputKind::kUniform, InputKind::kZipf, InputKind::kFewDistinct,
        InputKind::kAllEqual}) {
    std::vector<double> oracle = Concat(kind, kRanks, kPerRank, 0xFEEDu);
    std::sort(oracle.begin(), oracle.end());
    const std::int64_t n = static_cast<std::int64_t>(oracle.size());
    for (const std::int64_t k : {std::int64_t{0}, std::int64_t{1}, n / 2,
                                 n - 1}) {
      PerRank<SelectResult> results(kRanks);
      PerRank<int> verified(kRanks);
      RunRanks(kRanks, [&](mpisim::Comm& world) {
        auto tr = jsort::MakeTransport(backend, world);
        const auto local =
            jsort::GenerateInput(kind, world.Rank(), kRanks, kPerRank, 0xFEEDu);
        const SelectResult r = DistributedSelect(*tr, local, k);
        results.Set(world.Rank(), r);
        verified.Set(world.Rank(),
                     jsort::VerifySelection(*tr, local, k, r.value, r.less,
                                            r.less_equal)
                         ? 1
                         : 0);
      });
      const SelectResult& r0 = results[0];
      EXPECT_EQ(r0.value, oracle[static_cast<std::size_t>(k)])
          << jsort::InputKindName(kind) << " k=" << k;
      const auto less = static_cast<std::int64_t>(
          std::lower_bound(oracle.begin(), oracle.end(), r0.value) -
          oracle.begin());
      const auto less_equal = static_cast<std::int64_t>(
          std::upper_bound(oracle.begin(), oracle.end(), r0.value) -
          oracle.begin());
      EXPECT_EQ(r0.less, less);
      EXPECT_EQ(r0.less_equal, less_equal);
      for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(results[r].value, r0.value) << "rank " << r;
        EXPECT_EQ(results[r].less, r0.less) << "rank " << r;
        EXPECT_EQ(results[r].less_equal, r0.less_equal) << "rank " << r;
        EXPECT_TRUE(verified[r]) << "rank " << r;
      }
    }
  }
}

TEST_P(SelectSweep, HandlesEmptyAndUnevenSlices) {
  const Backend backend = GetParam();
  constexpr int kRanks = 5;
  // Rank r holds r * 3 elements; ranks 0 holds none.
  std::vector<double> oracle;
  for (int r = 0; r < kRanks; ++r) {
    const auto slice =
        jsort::GenerateInput(InputKind::kUniform, r, kRanks, 3 * r, 0x11u);
    oracle.insert(oracle.end(), slice.begin(), slice.end());
  }
  std::sort(oracle.begin(), oracle.end());
  const std::int64_t k = static_cast<std::int64_t>(oracle.size()) / 3;
  PerRank<double> values(kRanks);
  RunRanks(kRanks, [&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(backend, world);
    const auto local = jsort::GenerateInput(InputKind::kUniform, world.Rank(),
                                            kRanks, 3 * world.Rank(), 0x11u);
    values.Set(world.Rank(), DistributedSelect(*tr, local, k).value);
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(values[r], oracle[static_cast<std::size_t>(k)]);
  }
}

TEST(QuerySelect, OutOfRangeThrowsOnEveryRank) {
  constexpr int kRanks = 4;
  PerRank<int> threw(kRanks);
  RunRanks(kRanks, [&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(Backend::kRbc, world);
    const auto local =
        jsort::GenerateInput(InputKind::kUniform, world.Rank(), kRanks, 8, 3);
    int count = 0;
    try {
      DistributedSelect(*tr, local, -1);
    } catch (const mpisim::UsageError&) {
      ++count;
    }
    try {
      DistributedSelect(*tr, local, 8 * kRanks);
    } catch (const mpisim::UsageError&) {
      ++count;
    }
    threw.Set(world.Rank(), count);
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(threw[r], 2);
}

TEST(QuerySelect, IdenticalAnswersAcrossBackends) {
  constexpr int kRanks = 4;
  constexpr std::int64_t kPerRank = 53;
  const std::int64_t k = 2 * kPerRank + 7;
  std::vector<SelectResult> per_backend;
  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    PerRank<SelectResult> results(kRanks);
    RunRanks(kRanks, [&](mpisim::Comm& world) {
      auto tr = jsort::MakeTransport(backend, world);
      const auto local = jsort::GenerateInput(InputKind::kZipf, world.Rank(),
                                              kRanks, kPerRank, 0xD00Du);
      results.Set(world.Rank(), DistributedSelect(*tr, local, k));
    });
    per_backend.push_back(results[0]);
  }
  for (std::size_t i = 1; i < per_backend.size(); ++i) {
    EXPECT_EQ(per_backend[i].value, per_backend[0].value);
    EXPECT_EQ(per_backend[i].less, per_backend[0].less);
    EXPECT_EQ(per_backend[i].less_equal, per_backend[0].less_equal);
  }
}

TEST(QuerySelect, VerifierRejectsWrongAnswers) {
  constexpr int kRanks = 4;
  PerRank<int> verdicts(kRanks);
  RunRanks(kRanks, [&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(Backend::kRbc, world);
    const auto local = jsort::GenerateInput(InputKind::kUniform, world.Rank(),
                                            kRanks, 16, 0xBADu);
    const std::int64_t k = 20;
    const jsort::query::SelectResult r = DistributedSelect(*tr, local, k);
    int ok = 0;
    // Wrong value at the right ranks, wrong interval at the right value.
    if (!jsort::VerifySelection(*tr, local, k, r.value + 1.0, r.less,
                                r.less_equal)) {
      ++ok;
    }
    if (!jsort::VerifySelection(*tr, local, k, r.value, r.less + 1,
                                r.less_equal)) {
      ++ok;
    }
    if (jsort::VerifySelection(*tr, local, k, r.value, r.less,
                               r.less_equal)) {
      ++ok;
    }
    verdicts.Set(world.Rank(), ok);
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(verdicts[r], 3);
}

/// The sorted global input.
std::vector<double> SortedConcat(InputKind kind, int p, std::int64_t per_rank,
                                 std::uint64_t seed) {
  std::vector<double> all = Concat(kind, p, per_rank, seed);
  std::sort(all.begin(), all.end());
  return all;
}

TEST(QuerySelect, OneSweepPerRound) {
  constexpr int kRanks = 6;
  constexpr std::int64_t kPerRank = 300;
  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    for (const InputKind kind : {InputKind::kUniform, InputKind::kZipf}) {
      const std::vector<double> oracle =
          SortedConcat(kind, kRanks, kPerRank, 0x5EEu);
      const std::int64_t n = static_cast<std::int64_t>(oracle.size());
      for (const std::int64_t k : {std::int64_t{0}, n / 3, n - 1}) {
        PerRank<int> checked(kRanks);
        RunRanks(kRanks, [&](mpisim::Comm& world) {
          RecordingTransport tr(jsort::MakeTransport(backend, world));
          const auto local = jsort::GenerateInput(kind, world.Rank(), kRanks,
                                                  kPerRank, 0x5EEu);
          SelectStats st;
          const SelectResult r = DistributedSelect(tr, local, k, {}, &st);
          EXPECT_EQ(r.value, oracle[static_cast<std::size_t>(k)]);
          // Only sweeps, exactly as many as counted: the first, one per
          // round, and the fallbacks.
          EXPECT_EQ(tr.Count(CollectiveCall::kIscanWithTotal), st.sweeps);
          EXPECT_EQ(static_cast<int>(tr.calls().size()), st.sweeps);
          EXPECT_EQ(tr.Count(CollectiveCall::kIreduce), 0);
          EXPECT_EQ(tr.Count(CollectiveCall::kIbcast), 0);
          EXPECT_GE(st.sweeps, st.rounds + 1);
          EXPECT_GE(st.rounds, 1);
          // Every sweep carries pivot candidates, except that the last may
          // carry a small window whole.
          for (std::size_t i = 0; i < tr.calls().size(); ++i) {
            const jsort::ScanRider& rider = tr.calls()[i].rider;
            EXPECT_GT(rider.count, 0);
            if (rider.dt == jsort::Datatype::kFloat64) {
              EXPECT_EQ(i + 1, tr.calls().size());
              EXPECT_EQ(rider.op, jsort::ReduceOp::kMax);
            } else {
              EXPECT_EQ(rider.dt, jsort::Datatype::kPairDoubleDouble);
              EXPECT_EQ(rider.op, jsort::ReduceOp::kMaxPairFirst);
            }
          }
          checked.Set(world.Rank(), 1);
        });
        for (int r = 0; r < kRanks; ++r) {
          EXPECT_EQ(checked[r], 1) << jsort::BackendName(backend) << " "
                                   << jsort::InputKindName(kind) << " k=" << k;
        }
      }
    }
  }
}

TEST(QuerySelect, SweepsStayFew) {
  constexpr int kRanks = 8;
  constexpr int kSeeds = 20;
  for (const std::int64_t per_rank : {std::int64_t{256}, std::int64_t{2048}}) {
    for (const InputKind kind :
         {InputKind::kUniform, InputKind::kZipf, InputKind::kSortedAsc,
          InputKind::kFewDistinct}) {
      // Seed s draws its own data, target rank and pivot seed.
      std::vector<std::vector<double>> oracles;
      std::vector<std::int64_t> ks;
      std::mt19937_64 pick(0xC0FFEEu + static_cast<std::uint64_t>(per_rank));
      for (int s = 0; s < kSeeds; ++s) {
        oracles.push_back(SortedConcat(kind, kRanks, per_rank, 100 + s));
        ks.push_back(static_cast<std::int64_t>(
            pick() % static_cast<std::uint64_t>(kRanks * per_rank)));
      }
      PerRank<std::vector<double>> values(kRanks);
      PerRank<std::vector<int>> starts(kRanks);
      RunRanks(kRanks, [&](mpisim::Comm& world) {
        auto inner = jsort::MakeTransport(Backend::kRbc, world);
        std::vector<double> v;
        std::vector<int> c;
        for (int s = 0; s < kSeeds; ++s) {
          RecordingTransport tr(inner);
          const auto local = jsort::GenerateInput(kind, world.Rank(), kRanks,
                                                  per_rank, 100 + s);
          jsort::query::SelectConfig cfg;
          cfg.seed = static_cast<std::uint64_t>(s);
          v.push_back(DistributedSelect(tr, local, ks[s], cfg).value);
          c.push_back(static_cast<int>(tr.calls().size()));
        }
        values.Set(world.Rank(), v);
        starts.Set(world.Rank(), c);
      });
      for (int s = 0; s < kSeeds; ++s) {
        const std::string what = std::string(jsort::InputKindName(kind)) +
                                 " n/p=" + std::to_string(per_rank) +
                                 " seed " + std::to_string(s);
        EXPECT_EQ(values[0][s], oracles[s][static_cast<std::size_t>(ks[s])])
            << what;
        EXPECT_LE(starts[0][s], 16) << what;
      }
    }
  }
}

TEST(QuerySelect, FallbackSweepStillAnswersExactly) {
  // This target leaves the first bracket, so its new window's candidates
  // ride a sweep of their own.
  constexpr int kRanks = 4;
  constexpr std::int64_t kPerRank = 64;
  constexpr std::int64_t k = 32;
  const std::vector<double> oracle =
      SortedConcat(InputKind::kUniform, kRanks, kPerRank, 0xFA11u);
  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    PerRank<SelectResult> results(kRanks);
    PerRank<SelectStats> stats(kRanks);
    RunRanks(kRanks, [&](mpisim::Comm& world) {
      auto tr = jsort::MakeTransport(backend, world);
      const auto local = jsort::GenerateInput(InputKind::kUniform,
                                              world.Rank(), kRanks, kPerRank,
                                              0xFA11u);
      SelectStats st;
      results.Set(world.Rank(), DistributedSelect(*tr, local, k, {}, &st));
      stats.Set(world.Rank(), st);
    });
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_GT(stats[r].sweeps, stats[r].rounds + 1)
          << jsort::BackendName(backend);
      EXPECT_EQ(results[r].value, oracle[static_cast<std::size_t>(k)]);
      EXPECT_EQ(results[r].less, k);
      EXPECT_EQ(results[r].less_equal, k + 1);
    }
  }
}

TEST(QuerySelect, ClocksAndStatsRepeatOverFreshRuntimes) {
  for (const auto& [name, opts] : testutil::SmallMachines()) {
    const int p = opts.num_ranks;
    auto run = [&, &opts = opts] {
      return testutil::EndFootprints(opts, [&](mpisim::Comm& world) {
        auto tr = jsort::MakeTransport(Backend::kRbc, world);
        const auto local = jsort::GenerateInput(InputKind::kZipf,
                                                world.Rank(), p, 96, 0x8EAu);
        SelectStats st;
        const SelectResult r = DistributedSelect(*tr, local, 31 * p, {}, &st);
        return std::vector<double>{r.value, static_cast<double>(st.sweeps),
                                   static_cast<double>(st.rounds)};
      });
    };
    const auto first = run();
    for (int again = 0; again < 2; ++again) {
      EXPECT_EQ(run(), first) << name;
    }
  }
}

}  // namespace
