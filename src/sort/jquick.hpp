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
// u^(1/m) keys; k = SampleParams::TotalSamples of the parent, 1 under
// kRandomElement) fold with kMaxPairFirst in the sweep, and every rank
// takes the median of each side's k winners as that child's pivot. The
// root task, which has no parent, draws k candidates from its data and
// sweeps them alone (zero scan elements) before its first partition. A
// degenerate split retries its partition and sweep once, with fresh
// candidates. Tasks covering <= 2 processes become base cases, deferred
// to a second phase so a janus never delays a larger subtask (Section
// VII); the two-process base case exchanges data and quickselects each
// partner's share.
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
  SampleParams samples{};
  SplitSchedule schedule = SplitSchedule::kAlternating;
  /// Delivery path of the per-level data exchange (jsort::exchange).
  /// kAuto coalesces the (small, large) sides into one message per
  /// non-empty destination on every group size: eager coalesced sends, or
  /// the chunk-capable sparse collective when one such message could
  /// exceed segment_bytes. Either way a level costs a rank one payload
  /// startup per destination it reaches (O(1) under the greedy
  /// assignment; the sparse route adds O(log p) barrier tokens) instead
  /// of the dense Alltoallv's 2(p-1).
  exchange::Mode exchange_mode = exchange::Mode::kAuto;
  /// Large-message segment limit of the per-level exchange (bytes; 0 =
  /// unsegmented). Past it, payload messages are pipelined/chunked and
  /// kAuto prefers the chunk-capable sparse path over coalesced. Defaults
  /// to the measured crossover (see exchange::kDefaultSegmentBytes).
  std::int64_t segment_bytes = exchange::kDefaultSegmentBytes;
  std::uint64_t seed = 1;
};

/// Statistics of one JQuick run (per calling rank).
struct JQuickStats {
  int distributed_levels = 0;   // deepest level observed locally
  int janus_episodes = 0;       // times this rank was a janus process
  int base_tasks_1p = 0;
  int base_tasks_2p = 0;
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
