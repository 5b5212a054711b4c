// Baseline sorters: hypercube quicksort and single-level sample sort.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <tuple>

#include "sort/checks.hpp"
#include "sort/hypercube_qs.hpp"
#include "sort/sample_sort.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"
#include "topo/topology.hpp"

namespace {

using jsort::InputKind;
using testutil::RunRanks;

std::shared_ptr<jsort::Transport> RbcTransportOf(mpisim::Comm& world) {
  rbc::Comm rw;
  rbc::Create_RBC_Comm(world, &rw);
  return jsort::MakeRbcTransport(rw);
}

class HypercubeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, InputKind>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, HypercubeSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),  // powers of two
                       ::testing::Values(1, 16, 100),
                       ::testing::Values(InputKind::kUniform,
                                         InputKind::kAllEqual,
                                         InputKind::kSortedDesc)));

TEST_P(HypercubeSweep, SortsCorrectly) {
  const auto [p, quota, kind] = GetParam();
  RunRanks(p, [&, p = p, quota = quota, kind = kind](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(kind, world.Rank(), p, quota, 13);
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = RbcTransportOf(world);
    const auto out = jsort::HypercubeQuicksort(tr, std::move(input));
    EXPECT_EQ(before, jsort::GlobalFingerprint(out, rw));
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

TEST(Hypercube, RejectsNonPowerOfTwo) {
  EXPECT_THROW(RunRanks(6,
                        [](mpisim::Comm& world) {
                          auto tr = RbcTransportOf(world);
                          jsort::HypercubeQuicksort(tr, {1.0});
                        }),
               mpisim::UsageError);
}

TEST(Hypercube, ReportsImbalance) {
  // A skewed input forces imbalance: JQuick would still be perfectly
  // balanced, hypercube is not (this is the paper's Section IV point).
  constexpr int kP = 8;
  RunRanks(kP, [](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(InputKind::kZipf, world.Rank(), kP,
                                      256, 17);
    auto tr = RbcTransportOf(world);
    jsort::HypercubeStats stats;
    const auto out =
        jsort::HypercubeQuicksort(tr, std::move(input), {}, &stats);
    EXPECT_EQ(stats.levels, 3);
    const auto bal = jsort::GlobalBalance(out, rw);
    EXPECT_EQ(bal.max_count >= bal.min_count, true);
  });
}

class SampleSortSweep
    : public ::testing::TestWithParam<std::tuple<int, int, InputKind>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleSortSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13),
                       ::testing::Values(2, 32, 200),
                       ::testing::Values(InputKind::kUniform,
                                         InputKind::kAllEqual,
                                         InputKind::kGaussian)));

TEST_P(SampleSortSweep, SortsCorrectly) {
  const auto [p, quota, kind] = GetParam();
  RunRanks(p, [&, p = p, quota = quota, kind = kind](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(kind, world.Rank(), p, quota, 29);
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = RbcTransportOf(world);
    const auto out = jsort::SampleSort(tr, std::move(input));
    EXPECT_EQ(before, jsort::GlobalFingerprint(out, rw));
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

TEST(SampleSort, MessageCountIsPMinusOne) {
  constexpr int kP = 6;
  RunRanks(kP, [](mpisim::Comm& world) {
    auto tr = RbcTransportOf(world);
    auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(), kP,
                                      64, 1);
    jsort::SampleSortStats stats;
    jsort::SampleSort(tr, std::move(input), {}, &stats);
    EXPECT_EQ(stats.messages_sent, kP - 1);  // the p-1 startups
  });
}

TEST(SampleSort, PeerFailureUnwindsWithTheFailedRank) {
  // p=16 on 4 nodes of 4 under the two-level model: rank 5 fails before
  // the sort, so the splitter gather at the root and the splitter bcast
  // everywhere else can never complete. Every other rank must unwind with
  // an AbortedError naming rank 5 well within the deadlock timeout, and
  // Run must re-throw the injected error.
  constexpr int kP = 16;
  constexpr int kFailed = 5;
  mpisim::Runtime::Options o;
  o.num_ranks = kP;
  o.topology = topo::Topology::Uniform(kP, 4);
  o.cost.intra_alpha = o.cost.alpha;
  o.cost.intra_beta = o.cost.beta;
  o.cost.inter_alpha = 25.0 * o.cost.alpha;
  o.cost.inter_beta = 4.0 * o.cost.beta;
  o.deadlock_timeout = std::chrono::milliseconds(4000);
  testutil::PerRank<int> origins(kP);
  mpisim::Runtime rt(o);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    rt.Run([&](mpisim::Comm& world) {
      auto tr = RbcTransportOf(world);
      auto input = jsort::GenerateInput(InputKind::kUniform, world.Rank(), kP,
                                        64, 3);
      if (world.Rank() == kFailed) throw mpisim::Error("injected failure");
      try {
        jsort::SampleSort(tr, std::move(input));
      } catch (const mpisim::AbortedError& e) {
        origins.Set(world.Rank(), e.origin_rank());
        return;
      }
      ADD_FAILURE() << "rank " << world.Rank() << " was not aborted";
    });
    ADD_FAILURE() << "expected the injected failure to re-throw";
  } catch (const mpisim::Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected failure"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, o.deadlock_timeout);
  for (int r = 0; r < kP; ++r) {
    if (r == kFailed) continue;
    EXPECT_EQ(origins[r], kFailed) << "rank " << r;
  }
}

}  // namespace
