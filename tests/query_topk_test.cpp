// DistributedTopK on all three split backends and both routes: the
// result is exactly the k globally smallest elements sorted ascending on
// the root, ties are apportioned to exactly k, k >= n_total degrades to
// "everything", and both routes agree element for element. kAuto keeps
// the route that measures faster on the service's and bench_query's
// shapes. The heap route gathers one message per member in rank order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "query/topk.hpp"
#include "sort/checks.hpp"
#include "forwarding_transport.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::Backend;
using jsort::InputKind;
using jsort::query::DistributedTopK;
using jsort::query::TopKConfig;
using jsort::query::TopKRoute;
using jsort::query::TopKStats;
using testutil::CollectiveCall;
using testutil::PerRank;
using testutil::RecordingTransport;
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

struct SweepCase {
  Backend backend;
  TopKRoute route;
};

class TopKSweep : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsAndRoutes, TopKSweep,
    ::testing::Values(SweepCase{Backend::kRbc, TopKRoute::kSelect},
                      SweepCase{Backend::kRbc, TopKRoute::kLocalHeap},
                      SweepCase{Backend::kMpi, TopKRoute::kSelect},
                      SweepCase{Backend::kMpi, TopKRoute::kLocalHeap},
                      SweepCase{Backend::kIcomm, TopKRoute::kSelect},
                      SweepCase{Backend::kIcomm, TopKRoute::kLocalHeap}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(jsort::BackendName(info.param.backend)) + "_" +
             jsort::query::TopKRouteName(info.param.route);
    });

TEST_P(TopKSweep, ExactAcrossDistributionsAndK) {
  const SweepCase c = GetParam();
  constexpr int kRanks = 6;
  constexpr std::int64_t kPerRank = 29;
  for (const InputKind kind :
       {InputKind::kUniform, InputKind::kZipf, InputKind::kFewDistinct,
        InputKind::kAllEqual}) {
    std::vector<double> oracle = Concat(kind, kRanks, kPerRank, 0xCAFEu);
    std::sort(oracle.begin(), oracle.end());
    const std::int64_t n = static_cast<std::int64_t>(oracle.size());
    for (const std::int64_t k :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{13}, n, n + 50}) {
      PerRank<std::vector<double>> results(kRanks);
      PerRank<int> verified(kRanks);
      RunRanks(kRanks, [&](mpisim::Comm& world) {
        auto tr = jsort::MakeTransport(c.backend, world);
        const auto local =
            jsort::GenerateInput(kind, world.Rank(), kRanks, kPerRank, 0xCAFEu);
        TopKConfig cfg;
        cfg.route = c.route;
        std::vector<double> topk = DistributedTopK(*tr, local, k, cfg);
        verified.Set(world.Rank(),
                     jsort::VerifyTopK(*tr, local, k, topk, cfg.root) ? 1
                                                                      : 0);
        results.Set(world.Rank(), std::move(topk));
      });
      const std::int64_t k_eff = std::min(k, n);
      const std::vector<double> expect(
          oracle.begin(), oracle.begin() + static_cast<std::ptrdiff_t>(k_eff));
      EXPECT_EQ(results[0], expect)
          << jsort::InputKindName(kind) << " k=" << k;
      for (int r = 1; r < kRanks; ++r) {
        EXPECT_TRUE(results[r].empty()) << "rank " << r;
      }
      for (int r = 0; r < kRanks; ++r) {
        EXPECT_TRUE(verified[r]) << "rank " << r;
      }
    }
  }
}

TEST(QueryTopK, RoutesAgreeAndAutoPicksOne) {
  constexpr int kRanks = 8;
  constexpr std::int64_t kPerRank = 64;
  constexpr std::int64_t k = 24;
  std::vector<std::vector<double>> answers;
  for (const TopKRoute route :
       {TopKRoute::kSelect, TopKRoute::kLocalHeap, TopKRoute::kAuto}) {
    PerRank<std::vector<double>> results(kRanks);
    PerRank<TopKRoute> taken(kRanks);
    RunRanks(kRanks, [&](mpisim::Comm& world) {
      auto tr = jsort::MakeTransport(Backend::kRbc, world);
      const auto local = jsort::GenerateInput(InputKind::kUniform,
                                              world.Rank(), kRanks, kPerRank,
                                              0x50FAu);
      TopKConfig cfg;
      cfg.route = route;
      TopKStats stats;
      results.Set(world.Rank(),
                  DistributedTopK(*tr, local, k, cfg, &stats));
      taken.Set(world.Rank(), stats.route_taken);
    });
    answers.push_back(results[0]);
    // Every rank resolved kAuto to the same concrete route.
    for (int r = 1; r < kRanks; ++r) {
      EXPECT_EQ(taken[r], taken[0]);
    }
    EXPECT_NE(taken[0], TopKRoute::kAuto);
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[2], answers[0]);
  ASSERT_EQ(answers[0].size(), static_cast<std::size_t>(k));
}

TEST(QueryTopK, NonZeroRootReceivesTheResult) {
  constexpr int kRanks = 5;
  constexpr int kRoot = 3;
  PerRank<std::size_t> sizes(kRanks);
  RunRanks(kRanks, [&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(Backend::kRbc, world);
    const auto local = jsort::GenerateInput(InputKind::kUniform, world.Rank(),
                                            kRanks, 20, 0x3CAu);
    TopKConfig cfg;
    cfg.root = kRoot;
    const auto topk = DistributedTopK(*tr, local, 7, cfg);
    sizes.Set(world.Rank(), topk.size());
    EXPECT_TRUE(jsort::VerifyTopK(*tr, local, 7, topk, kRoot));
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(sizes[r], r == kRoot ? 7u : 0u);
  }
}

TEST(QueryTopK, VerifierRejectsTamperedResults) {
  constexpr int kRanks = 4;
  PerRank<int> verdicts(kRanks);
  RunRanks(kRanks, [&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(Backend::kRbc, world);
    const auto local = jsort::GenerateInput(InputKind::kUniform, world.Rank(),
                                            kRanks, 25, 0x7A3u);
    const std::int64_t k = 9;
    std::vector<double> topk = DistributedTopK(*tr, local, k);
    int ok = 0;
    if (jsort::VerifyTopK(*tr, local, k, topk, 0)) ++ok;
    if (world.Rank() == 0 && !topk.empty()) {
      // Swap one genuine winner for a near-miss: count stays right, the
      // below-threshold multiset hash does not.
      std::vector<double> tampered = topk;
      tampered.front() = tampered.front() - 1e-9;
      std::sort(tampered.begin(), tampered.end());
      if (!jsort::VerifyTopK(*tr, local, k, tampered, 0)) ++ok;
      // Truncation: wrong size.
      std::vector<double> shorter(topk.begin(), topk.end() - 1);
      if (!jsort::VerifyTopK(*tr, local, k, shorter, 0)) ++ok;
    } else {
      if (!jsort::VerifyTopK(*tr, local, k, {}, 0)) ++ok;
      if (!jsort::VerifyTopK(*tr, local, k, {}, 0)) ++ok;
    }
    verdicts.Set(world.Rank(), ok);
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(verdicts[r], 3);
}

/// The route kAuto takes on p ranks of n/p uniform elements, the same on
/// every rank.
TopKRoute AutoRoute(int p, std::int64_t per_rank, std::int64_t k) {
  PerRank<TopKRoute> taken(p);
  RunRanks(p, [&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(Backend::kRbc, world);
    const auto local = jsort::GenerateInput(InputKind::kUniform,
                                            world.Rank(), p, per_rank, 0xA70u);
    TopKStats stats;
    DistributedTopK(*tr, local, k, {}, &stats);
    taken.Set(world.Rank(), stats.route_taken);
  });
  for (int r = 1; r < p; ++r) EXPECT_EQ(taken[r], taken[0]);
  return taken[0];
}

TEST(QueryTopK, AutoRouteKeepsTheFasterRoute) {
  // The service's top-k jobs: widths 2-8, n = 128-2048, any k.
  for (const int p : {2, 4, 8}) {
    for (const std::int64_t n : {std::int64_t{128}, std::int64_t{2048}}) {
      for (const std::int64_t k : {std::int64_t{1}, n / 2, n}) {
        EXPECT_EQ(AutoRoute(p, n / p, k), TopKRoute::kLocalHeap)
            << "p=" << p << " n=" << n << " k=" << k;
      }
    }
  }
  // bench_query's topk rows (p = 32, n/p = 4,096): the heap measured
  // 420/569 model-us against select's 1,209-1,439/1,509-1,822 at
  // k = 16/256, and 1,680 against 1,335-1,750 at k = 2,048 (bench seed
  // and two more: select is faster at two of the three, by 6% on
  // average).
  EXPECT_EQ(AutoRoute(32, 4096, 16), TopKRoute::kLocalHeap);
  EXPECT_EQ(AutoRoute(32, 4096, 256), TopKRoute::kLocalHeap);
  EXPECT_EQ(AutoRoute(32, 4096, 2048), TopKRoute::kSelect);
}

TEST(QueryTopK, HeapRouteGathersOneMessagePerRankInRankOrder) {
  // Beside the count's two collectives, the heap route sends one message
  // from every member to the root, and the root takes them in rank
  // order: no sparse exchange, and end clocks and traffic that repeat
  // over fresh runtimes.
  constexpr std::int64_t kPerRank = 40;
  constexpr std::int64_t k = 25;
  const std::vector<double> count_only = {
      static_cast<double>(CollectiveCall::kIreduce),
      static_cast<double>(CollectiveCall::kIbcast)};
  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    for (const auto& [name, opts] : testutil::SmallMachines()) {
      const int p = opts.num_ranks;
      const std::string label =
          std::string(jsort::BackendName(backend)) + " " + name;
      auto run = [&, &opts = opts] {
        return testutil::EndFootprints(opts, [&](mpisim::Comm& world) {
          RecordingTransport tr(jsort::MakeTransport(backend, world));
          const auto local = jsort::GenerateInput(
              InputKind::kZipf, world.Rank(), p, kPerRank, 0x4EAu);
          const std::uint64_t sent0 = mpisim::Ctx().stats.messages_sent;
          TopKConfig cfg;
          cfg.route = TopKRoute::kLocalHeap;
          TopKStats st;
          std::vector<double> out = DistributedTopK(tr, local, k, cfg, &st);
          std::vector<double> kinds;
          for (const CollectiveCall& c : tr.calls()) {
            kinds.push_back(static_cast<double>(c.kind));
          }
          EXPECT_EQ(kinds, count_only) << label;
          EXPECT_EQ(st.candidates_sent, world.Rank() == 0 ? 0 : k) << label;
          out.push_back(static_cast<double>(
              mpisim::Ctx().stats.messages_sent - sent0));
          return out;
        });
      };
      const auto first = run();
      // The root's result, after EndFootprints' clock and six traffic
      // counters, is the k smallest of the concatenated input.
      constexpr std::ptrdiff_t kFootprint = 7;
      std::vector<double> all = Concat(InputKind::kZipf, p, kPerRank, 0x4EAu);
      std::sort(all.begin(), all.end());
      std::vector<double> expect(all.begin(), all.begin() + k);
      expect.insert(expect.begin(), first[0].begin(),
                    first[0].begin() + kFootprint);
      expect.push_back(first[0].back());
      EXPECT_EQ(first[0], expect) << label;
      // The count sends 2(p-1) messages and the gather p-1.
      double messages = 0;
      for (const auto& rank : first) messages += rank.back();
      EXPECT_EQ(messages, 3.0 * (p - 1)) << label;
      for (int again = 0; again < 2; ++again) {
        EXPECT_EQ(run(), first) << label;
      }
    }
    // Ranks with fewer candidates than k, and none at all, still send
    // their one message: rank r holds r elements.
    constexpr int kRanks = 5;
    PerRank<std::vector<double>> results(kRanks);
    RunRanks(kRanks, [&](mpisim::Comm& world) {
      auto tr = jsort::MakeTransport(backend, world);
      std::vector<double> local;
      for (int i = 0; i < world.Rank(); ++i) {
        local.push_back(10.0 * world.Rank() - i);
      }
      TopKConfig cfg;
      cfg.route = TopKRoute::kLocalHeap;
      results.Set(world.Rank(), DistributedTopK(*tr, local, 3, cfg));
    });
    EXPECT_EQ(results[0], (std::vector<double>{10.0, 19.0, 20.0}))
        << jsort::BackendName(backend);
  }
}

}  // namespace
