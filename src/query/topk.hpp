// Distributed top-k: the k globally smallest elements, delivered sorted
// to one designated group rank.
//
// Two routes, benchmarked against each other in bench_query:
//
//  * kSelect -- DistributedSelect finds the k-th threshold, every rank
//    keeps its elements below it plus a deterministic rank-ordered share
//    of the ties (one exscan), and exactly k qualifying elements ship to
//    the root over the transport's *sparse* exchange -- most ranks of a
//    skewed query contribute few or no items, so only non-empty
//    contributions pay a message. Bytes on the wire: k elements plus the
//    selection sweeps' O(p log n) messages of at most 192 bytes (8
//    pivot candidates each) -- less than a full sort of the same input
//    moves from n/p = 256 on (bench_query's topk rows).
//  * kLocalHeap -- the classic small-k fallback (cf. the mempool_dphpc
//    heap/quickselect top-k baselines): every rank reduces its slice to
//    its local k smallest (quickselect, expected O(n/p)), sends those
//    candidates to the root as one message, empty or not, and the root
//    receives them in rank order and merges. Since the root expects
//    exactly p-1 messages, no termination round is needed, and the
//    model time does not depend on arrival order. No selection sweeps,
//    but up to p*min(k, n/p) candidate elements move.
//
//  * kAuto picks between them from globally shared quantities only:
//    the heap's candidate funnel is priced against the selection route's
//    sweeps, tie exscan and k-element gather (see topk.cpp), so every
//    rank picks the same route.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "query/common.hpp"

namespace jsort::query {

enum class TopKRoute { kSelect, kLocalHeap, kAuto };

const char* TopKRouteName(TopKRoute r);

struct TopKConfig {
  TopKRoute route = TopKRoute::kAuto;
  /// Selection pivot seed (kSelect route); mixed per rank.
  std::uint64_t seed = 0x707Bu;
  /// Group rank that receives the result.
  int root = 0;
  int tag = kTopKTagBase;
};

struct TopKStats {
  TopKRoute route_taken = TopKRoute::kSelect;
  int select_rounds = 0;            // 0 on the local-heap route
  std::int64_t candidates_sent = 0; // elements this rank shipped to root
};

/// Collective over the transport group. Returns, on group rank
/// `cfg.root`, the min(k, n_total) globally smallest elements sorted
/// ascending; every other rank returns an empty vector. k < 0 throws.
std::vector<double> DistributedTopK(Transport& tr,
                                    std::span<const double> local,
                                    std::int64_t k,
                                    const TopKConfig& cfg = {},
                                    TopKStats* stats = nullptr);

}  // namespace jsort::query
