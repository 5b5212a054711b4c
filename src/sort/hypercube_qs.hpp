// Hypercube quicksort (Wagar [6]) -- the classic baseline JQuick is
// measured against in Section IV: restricted to p = 2^k processes and
// *not* load balanced (per-process data volumes drift apart as the pivots
// miss the medians).
//
// Each level: the group agrees on a pivot -- the median of Section
// VIII-A's PivotSamples(p) samples, gathered to the group's first rank and
// broadcast back -- every process splits its data, partners across the
// current hypercube dimension exchange the halves (small halves travel to
// the lower subcube), and the algorithm recurses on both subcubes.
// Implemented over RBC communicators, whose O(1) splits make the
// recursion cheap.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sort/transport.hpp"

namespace jsort {

struct HypercubeStats {
  int levels = 0;
  /// Final local element count; the spread across ranks is the imbalance
  /// JQuick eliminates.
  std::int64_t final_elements = 0;
};

/// Sorts the global data over the transport's group; Size() must be a
/// power of two. Returns this rank's slice of the sorted sequence -- the
/// slice sizes are generally *unbalanced* (that is the point of the
/// comparison).
std::vector<double> HypercubeQuicksort(
    const std::shared_ptr<Transport>& world, std::vector<double> local,
    HypercubeStats* stats = nullptr);

}  // namespace jsort
