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

/// Runs JQuick, verifies the three output invariants and returns every
/// rank's statistics. With `all_sparse`, also that every distributed level
/// took the sparse route: each distributed task starts one sparse
/// collective on each member, so a rank starts at least one per level of
/// its deepest chain of tasks.
std::vector<jsort::JQuickStats> CheckJQuick(int p, std::int64_t quota,
                                            InputKind kind, Backend backend,
                                            const JQuickConfig& cfg,
                                            bool all_sparse = false) {
  testutil::PerRank<jsort::JQuickStats> all_stats(p);
  RunRanks(p, [&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input =
        jsort::GenerateInput(kind, world.Rank(), p, quota, cfg.seed + 7);
    const auto before = jsort::GlobalFingerprint(input, rw);
    auto tr = std::make_shared<testutil::RecordingTransport>(
        MakeTransport(backend, world));
    jsort::JQuickStats stats;
    const auto out = JQuickSort(tr, std::move(input), cfg, &stats);
    if (all_sparse) {
      EXPECT_GE(stats.distributed_levels, 1);
      EXPECT_GE(tr->CountInTree(testutil::CollectiveCall::kIsparseAlltoallv),
                stats.distributed_levels);
    }
    // Perfect balance: exactly quota elements on every rank.
    EXPECT_EQ(static_cast<std::int64_t>(out.size()), quota);
    // Permutation: same global multiset.
    const auto after = jsort::GlobalFingerprint(out, rw);
    EXPECT_EQ(before, after);
    // Globally sorted.
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
    all_stats.Set(world.Rank(), stats);
  });
  return all_stats.Values();
}

/// The deepest distributed level over all ranks: 0 when the root task
/// finished directly.
int MaxLevels(const std::vector<jsort::JQuickStats>& stats) {
  int levels = 0;
  for (const jsort::JQuickStats& st : stats) {
    levels = std::max(levels, st.distributed_levels);
  }
  return levels;
}

/// Janus episodes summed over all ranks.
int TotalJanus(const std::vector<jsort::JQuickStats>& stats) {
  int janus = 0;
  for (const jsort::JQuickStats& st : stats) janus += st.janus_episodes;
  return janus;
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

/// The mpi and icomm transports through distributed levels: at n/p <= 32
/// JQuick finishes tasks of up to 14 ranks directly (JQuickDirect covers
/// those on every transport), so every p here splits -- a power of two,
/// an odd count and one rank above a power of two.
class JQuickBackends : public ::testing::TestWithParam<GridParam> {};

INSTANTIATE_TEST_SUITE_P(
    SmallSweep, JQuickBackends,
    ::testing::Combine(::testing::Values(16, 23, 33),
                       ::testing::Values(8, 32),
                       ::testing::Values(InputKind::kUniform,
                                         InputKind::kFewDistinct)));

TEST_P(JQuickBackends, SortsWithMpiTransport) {
  const auto [p, quota, kind] = GetParam();
  EXPECT_GE(MaxLevels(CheckJQuick(p, quota, kind, Backend::kMpi, {})), 1);
}

TEST_P(JQuickBackends, SortsWithIcommTransport) {
  const auto [p, quota, kind] = GetParam();
  EXPECT_GE(MaxLevels(CheckJQuick(p, quota, kind, Backend::kIcomm, {})), 1);
}

// The shapes below split: with one candidate per side JQuick finishes
// tasks of up to 14 ranks directly at n/p < 7 and 12 from 7 to 128; with
// median-of-samples pivots, 14 at n/p <= 50.

TEST(JQuick, RandomElementPivotPolicy) {
  JQuickConfig cfg;
  cfg.pivot = PivotPolicy::kRandomElement;
  EXPECT_GE(MaxLevels(CheckJQuick(24, 32, InputKind::kUniform,
                                  Backend::kRbc, cfg)),
            1);
  EXPECT_GE(MaxLevels(CheckJQuick(13, 16, InputKind::kFewDistinct,
                                  Backend::kRbc, cfg)),
            1);
}

TEST(JQuick, CascadedSchedule) {
  // The schedule orders a janus's two group creations, so the point is a
  // janus: 32 ranks split on two levels.
  JQuickConfig cfg;
  cfg.schedule = SplitSchedule::kCascaded;
  for (const Backend backend : {Backend::kRbc, Backend::kMpi}) {
    const auto stats =
        CheckJQuick(32, 16, InputKind::kUniform, backend, cfg);
    EXPECT_GE(MaxLevels(stats), 2);
    EXPECT_GE(TotalJanus(stats), 1);
  }
}

TEST(JQuick, ManySeedsStayCorrect) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    JQuickConfig cfg;
    cfg.seed = seed;
    EXPECT_GE(MaxLevels(CheckJQuick(20, 10, InputKind::kUniform,
                                    Backend::kRbc, cfg)),
              1)
        << "seed " << seed;
  }
}

TEST(JQuick, GaussianAndZipfInputs) {
  for (const InputKind kind : {InputKind::kGaussian, InputKind::kZipf,
                               InputKind::kBucketKiller}) {
    EXPECT_GE(MaxLevels(CheckJQuick(30, 50, kind, Backend::kRbc, {})), 1)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(JQuick, LargerRun) {
  CheckJQuick(16, 512, InputKind::kUniform, Backend::kRbc, JQuickConfig{});
}

/// The sparse exchange on RBC at every level: a segment limit below one
/// interior destination's message, (2 + n/p) * 8 bytes, makes kAuto take
/// the chunk-capable sparse route on every distributed level, and the
/// check counts the sparse collectives each rank starts. A janus rank
/// runs the sparse collectives of both its groups on one level tag, so
/// each collective's final drain must find its own members' blocks behind
/// the other group's. Every p here splits at least once: the rule
/// finishes tasks of up to 14 ranks directly at n/p = 16, 12 at 64 and
/// 10 at 256.
class JQuickSparseRbc
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, JQuickSparseRbc,
    ::testing::Combine(::testing::Values(15, 16, 19, 32),  // p
                       ::testing::Values(16, 64, 256)));   // n/p

TEST_P(JQuickSparseRbc, SortsAcrossSeeds) {
  const auto [p, quota] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    JQuickConfig cfg;
    cfg.segment_bytes = (1 + quota) * 8;
    cfg.seed = seed;
    CheckJQuick(p, quota, InputKind::kUniform, Backend::kRbc, cfg,
                /*all_sparse=*/true);
  }
}

TEST(JQuick, DefaultConfigAboveSegmentFlip) {
  // One per-destination message may carry (2 counts + 8192 elements) * 8
  // bytes, above the default 64 KiB segment limit: kAuto sends every
  // level's exchange over the sparse collective, janus overlaps included.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    JQuickConfig cfg;
    cfg.seed = seed;
    CheckJQuick(32, 8192, InputKind::kUniform, Backend::kRbc, cfg,
                /*all_sparse=*/true);
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
  // 16 ranks at n/p = 64 split: the rule finishes tasks of up to 12 ranks
  // directly there.
  constexpr int kP = 16;
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
    EXPECT_GE(stats.base_tasks_1p + stats.direct_tasks, 1);
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
    EXPECT_EQ(stats.direct_tasks, 1);
    EXPECT_EQ(out.size(), 32u);
    EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
  });
}

/// The largest task JQuick finishes directly under the default cost
/// model, per n/p: at the default segment limit, and at a limit of half a
/// message, which sends each slice of n/p >= 2 as two segments and so
/// prices the direct finish higher.
struct DirectShape {
  std::int64_t quota;
  int direct_max;
  int direct_max_halved;
};
constexpr std::array<DirectShape, 5> kDirectShapes = {{
    {0, 14, 14}, {1, 14, 14}, {7, 14, 6}, {64, 12, 6}, {256, 10, 6}}};

/// Per round of the all-gather of an s-rank direct finish, the slices it
/// carries: min(2^r, s - 2^r) in round r, s - 1 over its ceil(log2 s)
/// rounds.
std::vector<std::int64_t> RoundSlices(int s) {
  std::vector<std::int64_t> slices;
  for (int d = 1; d < s; d *= 2) slices.push_back(std::min(d, s - d));
  return slices;
}

/// The direct finish at every p from 3 up to the threshold, on every
/// backend: an all-gather of the p slices in ceil(log2 p) rounds and a
/// local selection, so no level. Every rank sends one message per round,
/// (p - 1) n/p elements in all, each round's in the segments of its own
/// length.
class JQuickDirect
    : public ::testing::TestWithParam<std::tuple<Backend, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, JQuickDirect,
    ::testing::Combine(::testing::Values(Backend::kRbc, Backend::kMpi,
                                         Backend::kIcomm),
                       ::testing::Range(std::size_t{0},
                                        kDirectShapes.size())));

TEST_P(JQuickDirect, FinishesEveryTaskUpToTheThreshold) {
  const auto [backend, at] = GetParam();
  const DirectShape shape = kDirectShapes[at];
  for (const bool halved : {false, true}) {
    if (halved && shape.quota < 2) continue;  // one element: one segment
    JQuickConfig cfg;
    if (halved) cfg.segment_bytes = 8 * ((shape.quota + 1) / 2);
    const std::int64_t segs = mpisim::AlltoallvSegmentsOf(
        shape.quota, sizeof(double), cfg.segment_bytes);
    EXPECT_EQ(segs, halved ? 2 : 1);
    const int direct_max =
        halved ? shape.direct_max_halved : shape.direct_max;
    for (int p = 3; p <= direct_max; ++p) {
      const std::vector<std::int64_t> slices = RoundSlices(p);
      std::int64_t segments = 0;
      for (const std::int64_t b : slices) {
        segments += mpisim::AlltoallvSegmentsOf(b * shape.quota,
                                                sizeof(double),
                                                cfg.segment_bytes);
      }
      for (const InputKind kind : {InputKind::kUniform,
                                   InputKind::kFewDistinct,
                                   InputKind::kAllEqual}) {
        const auto stats = CheckJQuick(p, shape.quota, kind, backend, cfg);
        for (int r = 0; r < p; ++r) {
          const jsort::JQuickStats& st = stats[static_cast<std::size_t>(r)];
          const std::string where =
              "p=" + std::to_string(p) + " n/p=" +
              std::to_string(shape.quota) + (halved ? " halved" : "") +
              " kind " + std::to_string(static_cast<int>(kind)) +
              " rank " + std::to_string(r);
          EXPECT_EQ(st.distributed_levels, 0) << where;
          EXPECT_EQ(st.direct_tasks, 1) << where;
          EXPECT_EQ(st.messages_sent,
                    static_cast<std::int64_t>(slices.size()))
              << where;
          EXPECT_EQ(st.elements_sent, (p - 1) * shape.quota) << where;
          EXPECT_EQ(st.segments_sent, segments) << where;
        }
        if (HasFailure()) return;
      }
    }
  }
}

TEST_P(JQuickDirect, LoneTaskEndsAtItsRoundsCost) {
  // A lone direct task started at clock 0: in every round each member
  // sends before it receives, and the round's message from me + d left at
  // the same clock as mine to me - d, so each round costs every rank
  // 2 (alpha segs_r + beta words_r) and every clock ends at the sum --
  // 172.16 at p = 10 and n/p = 256, where the linear exchange took 272.16.
  const auto [backend, at] = GetParam();
  const DirectShape shape = kDirectShapes[at];
  const mpisim::CostModel cost;
  for (const bool halved : {false, true}) {
    if (halved && shape.quota < 2) continue;
    const std::int64_t limit =
        halved ? 8 * ((shape.quota + 1) / 2) : JQuickConfig{}.segment_bytes;
    const int direct_max =
        halved ? shape.direct_max_halved : shape.direct_max;
    for (int p = 3; p <= direct_max; ++p) {
      double want = 0.0;
      double segments = 0.0;
      for (const std::int64_t b : RoundSlices(p)) {
        const std::int64_t words = b * shape.quota;
        const auto segs = static_cast<double>(
            mpisim::AlltoallvSegmentsOf(words, sizeof(double), limit));
        want += 2.0 * (cost.alpha * segs +
                       cost.beta * static_cast<double>(words));
        segments += segs;
      }
      if (p == 10 && shape.quota == 256 && !halved) {
        EXPECT_NEAR(want, 172.16, 1e-9);
      }
      mpisim::Runtime::Options opts;
      opts.num_ranks = p;
      const auto feet =
          testutil::EndFootprints(opts, [&](mpisim::Comm& world) {
            JQuickConfig cfg;
            cfg.segment_bytes = limit;
            jsort::JQuickStats stats;
            JQuickSort(MakeTransport(backend, world),
                       jsort::GenerateInput(InputKind::kUniform,
                                            world.Rank(), p, shape.quota, 5),
                       cfg, &stats);
            return std::vector<double>{
                static_cast<double>(stats.distributed_levels)};
          });
      const double bytes = 8.0 * static_cast<double>((p - 1) * shape.quota);
      for (int r = 0; r < p; ++r) {
        const auto& f = feet[static_cast<std::size_t>(r)];
        const std::string where = "p=" + std::to_string(p) + " n/p=" +
                                  std::to_string(shape.quota) +
                                  (halved ? " halved" : "") + " rank " +
                                  std::to_string(r);
        EXPECT_NEAR(f[0], want, 1e-9) << where;
        EXPECT_EQ(f[1], segments) << where;  // messages sent
        EXPECT_EQ(f[2], bytes) << where;     // bytes sent
        EXPECT_EQ(f[3], segments) << where;  // messages received
        EXPECT_EQ(f[4], bytes) << where;     // bytes received
        EXPECT_EQ(f[7], 0.0) << where;       // distributed levels
      }
      if (HasFailure()) return;
    }
  }
}

TEST(JQuickDirect, RuleSplitsOneRankAboveTheThreshold) {
  // Through the public entry point, under the default cost model: the
  // largest task finished directly has 14 ranks at n/p = 32, 10 at 256
  // and 4 at 2,048, and one rank more splits.
  for (const auto& [quota, direct_max] :
       {std::pair<std::int64_t, int>{32, 14}, {256, 10}, {2048, 4}}) {
    for (const int p : {direct_max, direct_max + 1}) {
      const auto stats =
          CheckJQuick(p, quota, InputKind::kUniform, Backend::kRbc, {});
      int levels = 0;
      for (const jsort::JQuickStats& st : stats) {
        levels = std::max(levels, st.distributed_levels);
      }
      if (p == direct_max) {
        EXPECT_EQ(levels, 0) << "p=" << p << " n/p=" << quota;
      } else {
        EXPECT_GE(levels, 1) << "p=" << p << " n/p=" << quota;
      }
    }
  }
}

TEST(JQuickDirect, JanusFinishesTwoDirectTasks) {
  // 16 ranks at n/p = 32 split once and both halves, about 8 ranks each,
  // finish directly. The split falls inside a rank's slots, so that janus
  // sends to and receives from both halves' members at once.
  constexpr int kP = 16;
  constexpr std::int64_t kQuota = 32;
  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    const auto stats =
        CheckJQuick(kP, kQuota, InputKind::kUniform, backend, {});
    int janus = 0;
    for (int r = 0; r < kP; ++r) {
      const jsort::JQuickStats& st = stats[static_cast<std::size_t>(r)];
      EXPECT_EQ(st.distributed_levels, 1) << "rank " << r;
      EXPECT_EQ(st.base_tasks_1p, 0) << "rank " << r;
      EXPECT_EQ(st.direct_tasks, 1 + st.janus_episodes) << "rank " << r;
      janus += st.janus_episodes;
    }
    EXPECT_GE(janus, 1);
  }
}

TEST(JQuickDirect, PaddedSortsRaggedSizes) {
  // Rank r holds (11r + 5) mod 17 elements, so sizes differ by up to 16
  // and some ranks hold none; the padded quota, 16, is the rule's m, and
  // every p here finishes directly. Rank r returns clamp(n - r * quota,
  // 0, quota) elements.
  const auto size_of = [](int r) -> std::int64_t { return (11 * r + 5) % 17; };
  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    for (const int p : {3, 7, 13}) {
      std::int64_t n = 0;
      std::int64_t quota = 0;
      for (int r = 0; r < p; ++r) {
        n += size_of(r);
        quota = std::max(quota, size_of(r));
      }
      RunRanks(p, [&](mpisim::Comm& world) {
        rbc::Comm rw;
        rbc::Create_RBC_Comm(world, &rw);
        const int me = world.Rank();
        auto input = jsort::GenerateInput(InputKind::kUniform, me, p,
                                          size_of(me), 13);
        const auto before = jsort::GlobalFingerprint(input, rw);
        jsort::JQuickStats stats;
        const auto out = jsort::JQuickSortPadded(
            MakeTransport(backend, world), std::move(input), {}, &stats);
        EXPECT_EQ(stats.distributed_levels, 0);
        EXPECT_EQ(static_cast<std::int64_t>(out.size()),
                  std::clamp<std::int64_t>(n - me * quota, 0, quota));
        EXPECT_EQ(jsort::GlobalFingerprint(out, rw), before);
        EXPECT_TRUE(jsort::IsGloballySorted(out, rw));
      });
    }
  }
}

TEST(JQuickDirect, TwoRankTaskIsOnePairExchange) {
  // Each member sends its slice -- in segments under a limit -- and then
  // receives its partner's: the paper's pair exchange, which ends both
  // clocks at 2 (segs alpha + beta n/p) with nothing else on the wire.
  constexpr std::int64_t kQuota = 96;
  for (const std::int64_t limit : {std::int64_t{0}, std::int64_t{256}}) {
    mpisim::Runtime::Options opts;
    opts.num_ranks = 2;
    const auto feet = testutil::EndFootprints(opts, [&](mpisim::Comm& world) {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      JQuickConfig cfg;
      cfg.segment_bytes = limit;
      const auto out = JQuickSort(
          jsort::MakeRbcTransport(rw),
          jsort::GenerateInput(InputKind::kUniform, world.Rank(), 2, kQuota,
                               5),
          cfg);
      return std::vector<double>{static_cast<double>(out.size())};
    });
    const mpisim::CostModel cost;
    const auto segs = static_cast<double>(
        mpisim::AlltoallvSegmentsOf(kQuota, sizeof(double), limit));
    EXPECT_EQ(segs, limit == 0 ? 1.0 : 3.0);
    const double bytes = 8.0 * kQuota;
    for (const auto& f : feet) {
      EXPECT_NEAR(f[0], 2.0 * (segs * cost.alpha + cost.beta * kQuota),
                  1e-9);
      EXPECT_EQ(f[1], segs);   // messages sent
      EXPECT_EQ(f[2], bytes);  // bytes sent
      EXPECT_EQ(f[3], segs);   // messages received
      EXPECT_EQ(f[4], bytes);  // bytes received
      EXPECT_EQ(f[7], static_cast<double>(kQuota));
    }
  }
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
  // sweep; a task that finishes directly sweeps nothing. At n/p = 40 the
  // rule finishes tasks of up to direct_max ranks directly -- 14 with 16
  // candidates per side, 12 with one, whose split sweeps fewer bytes --
  // so 32 ranks split on two levels. The output is the sorted input.
  constexpr int kP = 32;
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
                        : jsort::PivotSamples(kP);
      const int direct_max = policy == PivotPolicy::kRandomElement ? 12 : 14;
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
          if (c.size <= direct_max) {
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
