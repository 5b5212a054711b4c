// End-to-end Janus Quicksort: sortedness, permutation preservation and
// perfect balance over a grid of (p, n/p, input kind, transport, pivot
// policy, schedule); and the collectives one sort starts, counted per
// group by a decorator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <tuple>

#include "forwarding_transport.hpp"
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

/// One IscanWithTotal one rank started, with the totals it returned.
struct Sweep {
  int count = 0;
  int rider_count = 0;
  std::array<std::int64_t, 2> totals{};  // the (small, large) totals
};

/// The collectives one rank started on one group.
struct GroupCalls {
  int size = 0;
  int igather = 0;
  int ibcast = 0;
  int ireduce = 0;
  int iscan = 0;
  std::vector<Sweep> sweeps;
};

/// Counts the collectives started on its group, and registers a record
/// for every group it decorates, Split children included.
class CountingTransport final : public testutil::ForwardingTransport {
 public:
  CountingTransport(std::shared_ptr<jsort::Transport> inner,
                    std::vector<std::shared_ptr<GroupCalls>>* groups)
      : ForwardingTransport(std::move(inner)), groups_(groups),
        calls_(std::make_shared<GroupCalls>()) {
    calls_->size = Size();
    groups_->push_back(calls_);
  }

  jsort::Poll Ibcast(void* buf, int count, jsort::Datatype dt, int root,
                     int tag) override {
    ++calls_->ibcast;
    return ForwardingTransport::Ibcast(buf, count, dt, root, tag);
  }
  jsort::Poll Iscan(const void* send, void* recv, int count,
                    jsort::Datatype dt, jsort::ReduceOp op,
                    int tag) override {
    ++calls_->iscan;
    return ForwardingTransport::Iscan(send, recv, count, dt, op, tag);
  }
  jsort::Poll Ireduce(const void* send, void* recv, int count,
                      jsort::Datatype dt, jsort::ReduceOp op, int root,
                      int tag) override {
    ++calls_->ireduce;
    return ForwardingTransport::Ireduce(send, recv, count, dt, op, root,
                                        tag);
  }
  jsort::Poll Igather(const void* send, int count, jsort::Datatype dt,
                      void* recv, int root, int tag) override {
    ++calls_->igather;
    return ForwardingTransport::Igather(send, count, dt, recv, root, tag);
  }
  /// Also keeps the totals of a 2-element sweep once it completes.
  jsort::Poll IscanWithTotal(const void* send, void* incl, void* total,
                             int count, jsort::Datatype dt,
                             jsort::ReduceOp op, int tag,
                             const jsort::ScanRider& rider = {}) override {
    calls_->sweeps.push_back(Sweep{count, rider.count, {}});
    jsort::Poll poll = ForwardingTransport::IscanWithTotal(
        send, incl, total, count, dt, op, tag, rider);
    return [poll = std::move(poll), calls = calls_,
            at = calls_->sweeps.size() - 1, total, count]() mutable {
      if (!poll()) return false;
      if (count == 2) {
        std::memcpy(calls->sweeps[at].totals.data(), total,
                    sizeof(calls->sweeps[at].totals));
      }
      return true;
    };
  }

 protected:
  std::shared_ptr<jsort::Transport> Wrap(
      std::shared_ptr<jsort::Transport> child) override {
    return std::make_shared<CountingTransport>(std::move(child), groups_);
  }

 private:
  std::vector<std::shared_ptr<GroupCalls>>* groups_;
  std::shared_ptr<GroupCalls> calls_;
};

TEST(JQuick, EveryPivotRidesASweep) {
  // Per rank and group on rbc, under both pivot policies: no collective
  // but IscanWithTotal. The root group first sweeps k pivot candidates
  // alone (zero scan elements); every distributed group sweeps its two
  // counts with 2k candidates riding, once more after a degenerate first
  // sweep; a base case sweeps nothing. The output is the sorted input.
  constexpr int kP = 12;
  constexpr std::int64_t kQuota = 40;
  for (const PivotPolicy policy :
       {PivotPolicy::kMedianOfSamples, PivotPolicy::kRandomElement}) {
    for (const InputKind kind :
         {InputKind::kFewDistinct, InputKind::kZipf, InputKind::kAllEqual,
          InputKind::kUniform}) {
      JQuickConfig cfg;
      cfg.pivot = policy;
      const int k = policy == PivotPolicy::kRandomElement
                        ? 1
                        : cfg.samples.TotalSamples(kP, kQuota);
      std::vector<std::vector<std::shared_ptr<GroupCalls>>> groups(kP);
      testutil::PerRank<std::vector<double>> inputs(kP), outputs(kP);
      RunRanks(kP, [&](mpisim::Comm& world) {
        const int me = world.Rank();
        auto input = jsort::GenerateInput(kind, me, kP, kQuota, 5);
        inputs.Set(me, input);
        auto tr = std::make_shared<CountingTransport>(
            MakeTransport(Backend::kRbc, world),
            &groups[static_cast<std::size_t>(me)]);
        outputs.Set(me, JQuickSort(tr, std::move(input), cfg));
      });
      std::vector<double> want, got;
      for (int r = 0; r < kP; ++r) {
        want.insert(want.end(), inputs[r].begin(), inputs[r].end());
        got.insert(got.end(), outputs[r].begin(), outputs[r].end());
      }
      std::sort(want.begin(), want.end());
      const std::string where =
          std::string(policy == PivotPolicy::kRandomElement ? "random"
                                                            : "median") +
          " kind " + std::to_string(static_cast<int>(kind));
      EXPECT_EQ(got, want) << where;
      for (int r = 0; r < kP; ++r) {
        const auto& mine = groups[static_cast<std::size_t>(r)];
        ASSERT_FALSE(mine.empty()) << where;
        for (std::size_t g = 0; g < mine.size(); ++g) {
          const GroupCalls& c = *mine[g];
          const std::string at = where + " rank " + std::to_string(r) +
                                 " group " + std::to_string(g) + " of " +
                                 std::to_string(c.size) + " ranks";
          EXPECT_EQ(c.igather, 0) << at;
          EXPECT_EQ(c.ireduce, 0) << at;
          EXPECT_EQ(c.ibcast, 0) << at;
          EXPECT_EQ(c.iscan, 0) << at;
          if (c.size <= 2) {
            EXPECT_TRUE(c.sweeps.empty()) << at;
            continue;
          }
          std::vector<Sweep> sweeps = c.sweeps;
          if (g == 0) {
            ASSERT_FALSE(sweeps.empty()) << at;
            EXPECT_EQ(sweeps.front().count, 0) << at;
            EXPECT_EQ(sweeps.front().rider_count, k) << at;
            sweeps.erase(sweeps.begin());
          }
          ASSERT_FALSE(sweeps.empty()) << at;
          const auto degenerate = [](const Sweep& w) {
            return w.totals[0] == 0 || w.totals[1] == 0;
          };
          EXPECT_EQ(sweeps.size(), degenerate(sweeps[0]) ? 2u : 1u) << at;
          for (const Sweep& w : sweeps) {
            EXPECT_EQ(w.count, 2) << at;
            EXPECT_EQ(w.rider_count, 2 * k) << at;
          }
        }
      }
    }
  }
}

}  // namespace
