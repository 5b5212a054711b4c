// Distributed k-th selection: the exact k-th order statistic of a
// distributed multiset, without sorting it.
//
// Iterative distributed selection in the style of Floyd & Rivest
// ("Expected time bounds for selection", CACM 1975), one collective per
// round. Every round holds 8 pivot candidates from the active window,
// drawn with the weighted-reservoir machinery the sorters already use
// (sampling.hpp: per-rank candidates keyed u^(1/m), a kMaxPairFirst
// fold). The winners one position either side of the target's expected
// position among them bracket it (a side with no winner left stays
// unbounded); each rank partitions its local window five ways around
// them (< lo, == lo, between, == hi, > hi) and draws the next candidates
// from the middle part. One Transport::IscanWithTotal sweep then returns
// the four global counts and their prefixes, with the candidates riding
// it as JQuick's do: 2(p-1) messages over 2 ceil(log2 p) hops. If the
// target lies in an equal run, that value is the answer; if between the
// two, the next round starts with its candidates in hand; otherwise the
// new window's candidates ride a sweep of their own. A window of at most
// 32 elements rides one last sweep whole, each rank writing its elements
// at its prefix. The first sweep sums the local sizes and carries the
// first candidates. On uniform data a call takes 7.3 sweeps on average
// at n = 2^11 and 9.4 at n = 2^14 (random k); every round discards at
// least one equal run, so duplicate-heavy and all-equal inputs terminate
// too.
#pragma once

#include <cstdint>
#include <span>

#include "query/common.hpp"

namespace jsort::query {

struct SelectConfig {
  /// Pivot-sampling seed. Mixed with the group rank, so ranks draw
  /// decorrelated reservoir keys; the result is deterministic in
  /// (data, k, seed) and identical across backends.
  std::uint64_t seed = 0x51E7u;
  int tag = kSelectTagBase;
};

struct SelectStats {
  int rounds = 0;               // rounds, one counts or window sweep each
  int sweeps = 0;               // collectives: 1 + rounds + fallbacks
  std::int64_t n_total = 0;     // global element count
};

/// The answer: the k-th smallest global element (0-based) and its exact
/// global rank interval. k in [less, less_equal) always holds, and
/// less_equal - less is the value's global multiplicity.
struct SelectResult {
  double value = 0.0;
  std::int64_t less = 0;        // global #elements strictly < value
  std::int64_t less_equal = 0;  // global #elements <= value
};

/// Collective over the transport group; every rank passes its local slice
/// and receives the identical result. Requires 0 <= k < sum of local
/// sizes (throws UsageError otherwise, consistently on every rank).
/// `stats`, if non-null, is reset and then filled.
SelectResult DistributedSelect(Transport& tr, std::span<const double> local,
                               std::int64_t k, const SelectConfig& cfg = {},
                               SelectStats* stats = nullptr);

}  // namespace jsort::query
