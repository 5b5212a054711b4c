// Janus Quicksort (JQuick) -- Section VII of the paper.
//
// A recursive distributed quicksort with *perfect data balance*: after
// every level each process stores exactly its quota of n/p elements. Task
// splits generally do not align with process boundaries; the straddling
// process -- the janus process -- belongs to both subgroups and advances
// both subtasks simultaneously, which is only possible because every
// communication operation is nonblocking and every group split is cheap.
//
// One distributed level = local partition, one up-sweep/down-sweep
// collective (Transport::IscanWithTotal) that returns the prefix sums and
// totals of the (small, large) counts and, riding beside them, the
// children's pivots, then greedy capacity-filling data assignment, a
// nonblocking data exchange and the split. The sweep runs over the
// in-order binomial tree, whose end ranks are leaves, so a janus -- the
// last rank of one task and the first of the next -- sends one message up
// and receives one down in each of its two sweeps and forwards nothing;
// the rank doing two tasks' work is never the one the other ranks' sums
// pass through. A child's elements are its parent's small (or large)
// sides, so k weighted-reservoir candidates per side (sampling.hpp's
// u^(1/m) keys; k = PivotSamples of the parent's group size, 1 under
// kRandomElement) fold with kMaxPairFirst in the sweep, and every rank
// takes the median of each side's k winners as that child's pivot. The
// root task, which has no parent, draws k candidates from its data and
// sweeps them alone (zero scan elements) before its first partition. A
// degenerate split retries its partition and sweep once, with fresh
// candidates.
//
// The paper's base case finishes a two-process task with one exchange and
// a local selection (Section VII). Here every task that the runtime's
// alpha-beta model prices cheaper to finish than to split does so: its
// members all-gather their slices and each quickselects its own slots of
// the union -- the all-gather-then-rank shortcut of fast work-inefficient
// sorting (Axtmann, Bingmann, Sanders, Schulz, "Practical Massively
// Parallel Sorting", SPAA 2015). The all-gather takes ceil(log2 s) rounds
// (Bruck, Ho, Kipnis, Upfal & Weathersby, "Efficient algorithms for
// all-to-all communications in multiport message-passing systems", IEEE
// TPDS 1997): in round r, d = 2^r, member i sends the first min(d, s - d)
// slices it holds -- its own, then those of i + 1, i + 2, ... -- to i - d
// and appends as many from i + d, on a tag of the round's own. A member
// of an s-rank task so pays ceil(log2 s) alpha + (s-1) beta n/p each way,
// where sending its slice to every other member paid (s-1)(alpha + beta
// n/p); s = 2 is the paper's pair exchange. The rule (jquick.cpp,
// FinishesDirectly) still prices that linear exchange, which bounds the
// rounds from above, against one more level's sweep, exchange and its
// children's finishes: tasks of <= 2 ranks always qualify, and under the
// default model tasks of up to 14 ranks do at n/p <= 32, 10 at n/p = 256,
// 6 at 1,024 and 4 from 2,048 up. Such tasks are deferred to a second
// phase, after the rank's distributed tasks, so a janus never delays a
// larger subtask. That phase polls all of the rank's direct tasks under
// one wait: each task sends a round as soon as it holds the round's
// blocks, and a receive is taken only once its message is there, so a
// janus in two direct tasks runs both all-gathers at once and never holds
// one task's partner behind the other task's receive.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sort/exchange.hpp"
#include "sort/sampling.hpp"
#include "sort/transport.hpp"

namespace jsort {

/// Ordering of a janus process's two group splits (Section VIII-C).
/// kAlternating bounds creation cascades (every other janus creates the
/// left group first); kCascaded always creates left first, provoking the
/// chains measured in Figure 6 / discussed for Figure 8.
enum class SplitSchedule {
  kAlternating,
  kCascaded,
};

struct JQuickConfig {
  PivotPolicy pivot = PivotPolicy::kMedianOfSamples;
  SplitSchedule schedule = SplitSchedule::kAlternating;
  /// Large-message segment limit of the per-level exchange (bytes; 0 =
  /// unsegmented). The exchange (jsort::exchange, Mode::kAuto) coalesces
  /// the (small, large) sides into one message per non-empty destination
  /// on every group size: eager coalesced sends, or the chunk-capable
  /// sparse collective when one such message could exceed this limit.
  /// Either way a level costs a rank one payload startup per destination
  /// it reaches (O(1) under the greedy assignment; the sparse route adds
  /// O(log p) barrier tokens) instead of the dense Alltoallv's 2(p-1).
  /// The direct finish sends every round's message in segments of this
  /// limit too, and its rule prices each segment's startup. Defaults to
  /// the measured crossover (see exchange::kDefaultSegmentBytes).
  std::int64_t segment_bytes = exchange::kDefaultSegmentBytes;
  std::uint64_t seed = 1;
};

/// Statistics of one JQuick run (per calling rank).
struct JQuickStats {
  int distributed_levels = 0;   // deepest level observed locally
  int janus_episodes = 0;       // times this rank was a janus process
  int base_tasks_1p = 0;        // single-rank tasks, sorted locally
  /// Tasks of >= 2 ranks finished directly: a ceil(log2 s)-round
  /// all-gather of the members' slices and a local selection, no split.
  int direct_tasks = 0;
  std::int64_t elements_sent = 0;
  std::int64_t messages_sent = 0;
  /// Wire-level payload messages after segmentation (== messages_sent of
  /// the per-level exchanges when segment_bytes is 0).
  std::int64_t segments_sent = 0;
};

/// Sorts the global data distributed over the transport's group.
/// `local.size()` must be the same on every rank (the paper's n = p * (n/p)
/// assumption; use JQuickSortPadded for arbitrary n). Returns this rank's
/// slice of the globally sorted sequence -- exactly local.size() elements:
/// perfect balance. If `stats` is non-null it receives run statistics.
std::vector<double> JQuickSort(const std::shared_ptr<Transport>& world,
                               std::vector<double> local,
                               const JQuickConfig& cfg = {},
                               JQuickStats* stats = nullptr);

/// Arbitrary-n front end: pads every rank with +infinity sentinels to the
/// largest local size (the quota), sorts, and drops the global slots past
/// the input's count, which all land on the highest ranks. Genuine +inf
/// inputs survive. Per-rank input sizes may differ by any amount; rank r
/// returns clamp(n - r * quota, 0, quota) elements.
std::vector<double> JQuickSortPadded(const std::shared_ptr<Transport>& world,
                                     std::vector<double> local,
                                     const JQuickConfig& cfg = {},
                                     JQuickStats* stats = nullptr);

}  // namespace jsort
