// Single-level sample sort (Blelloch et al. [15]) -- the "move the data
// once" end of the design space discussed in Section IV: p-1 splitters are
// chosen from a sample, every process partitions its data into p buckets
// and sends bucket i to process i in one all-to-all, then sorts locally.
// Efficient only for n = Omega(p^2 / log p); the p-1 message startups per
// process are the cost JQuick's O(log p) levels avoid for small n/p.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sort/exchange.hpp"
#include "sort/transport.hpp"

namespace jsort {

struct SampleSortConfig {
  /// Large-message segment limit of the bucket exchange (bytes; 0 =
  /// unsegmented): past it, each per-peer payload block is pipelined in
  /// segments of at most this many bytes. Defaults to the measured
  /// crossover (see exchange::kDefaultSegmentBytes).
  std::int64_t segment_bytes = exchange::kDefaultSegmentBytes;
  /// Delivery path of the bucket exchange. kAuto keeps the dense
  /// Alltoallv on a flat cost model and switches to the node-aware
  /// hierarchical engine exactly when the cost model is two-level and the
  /// group spans nodes (see exchange.hpp).
  exchange::Mode exchange_mode = exchange::Mode::kAuto;
  std::uint64_t seed = 1;
};

struct SampleSortStats {
  std::int64_t final_elements = 0;
  std::int64_t messages_sent = 0;
  /// Wire-level payload messages after segmentation (== messages_sent
  /// on the flat paths when segment_bytes is 0; the hierarchical path
  /// counts every wire message of its three phases).
  std::int64_t segments_sent = 0;
};

/// Sorts the global data over the transport's group. Output slices are
/// approximately balanced, not perfectly: the splitters are weighted
/// sample quantiles, so data held by a few ranks spreads too, and the
/// largest slice exceeds n/p by about sqrt(2 ln p * p / S) for S samples
/// -- S = p * kFirstRoundSamples, or p * B after a second round of B per
/// rank where the larger sample pays for itself (SecondRoundSamples).
std::vector<double> SampleSort(const std::shared_ptr<Transport>& world,
                               std::vector<double> local,
                               const SampleSortConfig& cfg = {},
                               SampleSortStats* stats = nullptr);

}  // namespace jsort
