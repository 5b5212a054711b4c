// Multi-level sample sort (Section IV, citing Gerbessiotis & Valiant):
// the compromise between single-level sample sort (one data exchange,
// p-1 startups) and hypercube-style recursion (log p exchanges, O(1)
// startups each): agree on k-1 pivots, partition local data into k
// pieces, route piece i to process group i, and recurse within each group.
//
// Group splits use the transport (O(1) local with RBC), so the recursion
// does not pay communicator-construction costs -- the enabling property
// this paper contributes. Output slices are approximately balanced.
//
// The per-level piece routing follows the AMS multilevel k-way exchange
// (Axtmann/Sanders): each sender deterministically assigns piece g to one
// member of group g (spreading senders evenly over the group), and ships
// its k pieces in place through the bucket entry point of jsort::exchange
// (of its two, bucket and segment, the one without receive counts), each
// piece a bucket bound for its member. Below the dense threshold only
// non-empty pieces travel -- no message startup is ever paid for an empty
// piece -- and termination comes from the exchange layer instead of a
// hand-rolled probe loop.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sort/exchange.hpp"
#include "sort/transport.hpp"

namespace jsort {

struct MultilevelConfig {
  /// Branching factor: pieces / process groups per level. 0 = topology-
  /// derived: one group per node when the installed cost model is
  /// two-level and the world group spans more than one node (the first
  /// level's groups then align with node boundaries, so the recursion
  /// goes node-local after one exchange), else 4.
  int k = 4;
  std::uint64_t seed = 1;
  /// Delivery path of the per-level bucket exchange (kAuto: sparse below
  /// the dense threshold; kCoalesced runs sparse, as the bucket exchange
  /// has no receive counts -- see exchange.hpp).
  exchange::Mode exchange_mode = exchange::Mode::kAuto;
};

struct MultilevelStats {
  int levels = 0;
  /// Non-empty payload messages this rank sent across all levels (empty
  /// pieces and self-destined pieces cost no startup).
  std::int64_t messages_sent = 0;
  /// Wire-level payload messages after segmentation at
  /// exchange::kDefaultSegmentBytes, across all levels.
  std::int64_t segments_sent = 0;
  std::int64_t final_elements = 0;
  /// Per-level traffic of this rank's bucket exchange.
  std::vector<exchange::ExchangeStats> level_stats;
};

/// Sorts the global data over the transport's group; works for any group
/// size and any k >= 2.
std::vector<double> MultilevelSampleSort(
    const std::shared_ptr<Transport>& world, std::vector<double> local,
    const MultilevelConfig& cfg = {}, MultilevelStats* stats = nullptr);

}  // namespace jsort
