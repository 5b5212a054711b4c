// Data-redistribution layer shared by the sorting algorithms.
//
// Every distributed sorter ends a level the same way: each rank holds runs
// of elements whose destinations are defined by a global slot interval
// (jquick) or by explicit per-destination buckets (sample sort), and the
// data must move so that every rank ends up with exactly its share. This
// layer factors that step out of the sorters and routes it over the
// jsort::Transport abstraction, so the same code runs on RBC, native-MPI
// and Icomm backends.
//
// Four delivery paths are provided:
//  * the dense Alltoallv path -- a counts exchange followed by a payload
//    Transport::Ialltoallv. Predictable p-1 message rounds, right when
//    most destinations receive something (single-level sample sort);
//  * the coalesced path for skewed partitions -- when each rank sends to
//    only a few destinations (jquick's greedy chunk assignment spans O(1)
//    ranks per level), the dense counts exchange would dominate. Instead,
//    all segments destined to one rank ship as a single self-describing
//    message ([int64 counts[k]][payload]), and receivers drain
//    membership-filtered probes until their precomputed expectations are
//    met. One startup per non-empty destination, zero metadata rounds;
//  * the sparse path -- the same self-describing one-message-per-non-empty-
//    destination shipping, but delivered over the transport's sparse
//    collective (Transport::IsparseAlltoallv), whose two-lightweight-
//    barrier termination detection replaces the coalesced path's
//    expectation-driven drain. One startup per non-empty destination plus
//    O(log p) barrier tokens; the only flat sparse option when receive
//    counts are unknown (ExchangeGroupwise), and the robust choice at
//    scale;
//  * the hierarchical path on two-level machines (topo/hier_exchange.hpp)
//    -- traffic gathers at one gateway per (node, remote node) pair,
//    crosses the network in one bundle per node pair and is scattered on
//    the node. Every receiver knows its senders and their message count
//    from the node map, even where element counts are unknown, so it
//    needs neither a counts round nor termination barriers.
//
// kAuto resolves from globally shared quantities only (the decision must
// be identical on every rank). On a two-level cost model, a group that
// spans nodes takes the hierarchical path at every entry point. Otherwise
// a segment exchange (StartSegmentExchange, jquick's per-level
// redistribution) has exactly two routes and never goes dense: its
// receive expectations follow from the layout arithmetic, so it takes the
// coalesced path -- at most one message per non-empty
// destination and no counts round, where the dense path pays 2(p-1)
// startups per rank -- unless a single per-destination message could
// exceed the segment limit, in which case it takes the chunk-capable
// sparse path. A group-wise exchange cannot know its receive counts: it
// estimates the non-empty-destination fraction as f = out.size() / (p-1),
// takes the dense path at f >= 1/2 (most peers are hit anyway, and the
// pairwise Alltoallv schedule avoids contention) and the sparse path below
// it (barrier-based termination, O(log p) tokens).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sort/assignment.hpp"
#include "sort/transport.hpp"
#include "topo/topology.hpp"

namespace jsort {
namespace exchange {

/// Default large-message segment limit (bytes) of the sorter configs
/// (JQuickConfig / SampleSortConfig / MultilevelConfig). Measured with
/// bench_sensitivity's segment_crossover sweep on the virtual cost model
/// (p=16, n/p=2^15): 64 KiB is where segmentation stops costing the dense
/// Alltoallv path (its per-peer blocks pipeline across the rbc rounds, so
/// vtime stays within 0.5% of unsegmented) while the skewed jquick
/// exchanges already gain ~2%, and smaller limits (4..16 KiB) tax one or
/// both paths with per-chunk startups. Messages below the limit are
/// unaffected; above it, memory per in-flight message stays bounded.
inline constexpr std::int64_t kDefaultSegmentBytes = 65536;

/// Per-rank traffic accounting of one redistribution. Counts payload
/// messages only; the dense path's metadata (counts) round is excluded so
/// the numbers stay comparable across paths.
struct ExchangeStats {
  /// Logical payload messages: one per (destination, exchange) the path
  /// transmits, regardless of segmentation.
  std::int64_t messages_sent = 0;
  std::int64_t elements_sent = 0;
  /// Wire-level payload messages after large-message segmentation: every
  /// logical message counts its segments/chunks (== messages_sent when no
  /// segment limit applies). Matches the backend arithmetic
  /// (mpisim::AlltoallvSegmentsOf / SparseChunksOf) exactly, so tests can
  /// reconcile this against the substrate's measured message counters.
  /// The hierarchical path reports every wire message of its three
  /// phases here, frames included (the per-level counters below).
  std::int64_t segments = 0;
  /// Per-level traffic of the hierarchical path (Mode::kHierarchical /
  /// kAuto on a two-level cost model): wire messages and bytes of the
  /// intra-node phases (relay to the gateways + local scatter) and of the
  /// gateway-to-gateway inter-node phase, exactly as the substrate counts
  /// them. Zero on every flat path.
  std::int64_t intra_messages = 0;
  std::int64_t intra_bytes = 0;
  std::int64_t inter_messages = 0;
  std::int64_t inter_bytes = 0;
};

/// Delivery path selection.
enum class Mode {
  kAlltoallv,  // dense: counts exchange + Transport::Ialltoallv
  kCoalesced,  // skewed: one self-describing message per destination,
               // expectation-terminated probe drain
  kSparse,     // skewed: one message per destination over the transport's
               // sparse collective (barrier-terminated, no expectations)
  kHierarchical,  // node-aware: per-destination traffic gathers on each
                  // node at one gateway per remote node, crosses the
                  // network once gateway-to-gateway in one bundle per node
                  // pair, and is scattered locally -- three point-to-point
                  // phases with known expectations, no barrier
                  // (topo/hier_exchange.hpp); byte-identical results to
                  // the flat paths. Collective and blocking at start.
                  // Degrades gracefully on a flat or single-node topology
                  // (only the intra phase runs).
  kAuto,       // On a two-level cost model (CostModel::Hierarchical())
               // with more than one node in the group: kHierarchical --
               // matching the exchange structure to the machine beats
               // every flat path on inter-node traffic. Otherwise a
               // segment exchange takes kCoalesced, or kSparse exactly
               // when a single per-destination message could exceed
               // segment_bytes (the sparse backend chunks its payloads,
               // the coalesced eager sends cannot); a group-wise exchange
               // takes dense or sparse by its estimated non-empty-
               // destination fraction (see the header comment)
};

/// Vnode map of the transport's group under the runtime's installed
/// topology (topo/topology.hpp): the node view behind kAuto's
/// hierarchical choice, the hierarchical engine and the multilevel
/// sorter's topology-derived branching factor. Purely local -- every
/// member computes the identical map.
topo::VnodeMap VnodesOfGroup(const Transport& tr);

/// Exclusive prefix sum of per-rank element counts over the transport --
/// the interval computation that turns "I hold n elements" into "my
/// elements occupy global slots [result, result + n)". Blocking.
std::int64_t ExscanCount(Transport& tr, std::int64_t mine, int tag);

/// Sender-side plan of a slot-interval redistribution: per-destination
/// counts and displacements (elements) for the caller's run occupying
/// slots [slot_begin, slot_begin + n) of `layout`. Purely local O(spanned
/// ranks) arithmetic over the greedy chunk assignment.
struct SendPlan {
  std::vector<int> counts;  // per destination rank
  std::vector<int> displs;  // prefix sums of counts
};
SendPlan PlanFromInterval(const CapacityLayout& layout,
                          std::int64_t slot_begin, std::int64_t n, int p);

/// Blocking bucket redistribution (single-level sample sort): bucket[i]
/// goes to rank i, every rank returns the concatenation of what it
/// received, ordered by source rank. `stats`, if non-null, is incremented
/// by this call's payload traffic (p-1 messages on the dense path).
/// `segment_bytes` > 0 pipelines each per-peer payload block in segments
/// of at most that many bytes (the large-message regime). Every bucket is
/// non-empty-or-not per rank, so only two deliveries make sense here:
/// kHierarchical runs the node-aware engine (skipping the dense counts
/// round entirely -- its messages are self-describing), kAuto picks it
/// exactly when the cost model is two-level and the group spans nodes,
/// and every other mode delivers densely.
std::vector<double> ExchangeBuckets(
    Transport& tr, const std::vector<std::vector<double>>& buckets, int tag,
    ExchangeStats* stats = nullptr, std::int64_t segment_bytes = 0,
    Mode mode = Mode::kAuto);

/// Flat-bucket variant: bucket i occupies elements [offsets[i],
/// offsets[i+1]) of `elements` (offsets has Size()+1 entries) -- the
/// layout PartitionKWay produces, exchanged without per-bucket copies.
std::vector<double> ExchangeBuckets(Transport& tr,
                                    std::span<const double> elements,
                                    std::span<const std::int64_t> offsets,
                                    int tag, ExchangeStats* stats = nullptr,
                                    std::int64_t segment_bytes = 0,
                                    Mode mode = Mode::kAuto);

/// One outgoing payload of a group-wise (AMS-style) exchange: `count`
/// elements to group rank `dest`. Entries may be empty; they are not
/// transmitted.
struct Outgoing {
  int dest = 0;
  const double* data = nullptr;
  std::int64_t count = 0;
};

/// Blocking group-wise redistribution for exchanges whose receive counts
/// are *not* known in advance -- the multilevel sorter routes each local
/// piece to one deterministically assigned member of its destination
/// group, and a receiver cannot predict how many elements (or which
/// non-empty pieces) will arrive. Ships one message per non-empty non-self
/// destination and returns everything received, concatenated in source-
/// rank order (self-destined entries bypass the transport).
///
/// kSparse (and kAuto below the dense threshold) delivers over the
/// transport's sparse collective; kAlltoallv runs the dense counts +
/// payload rounds. kCoalesced degrades to kSparse: its expectation-driven
/// termination requires known receive counts, which this entry point is
/// for exchanges without. The kAuto decision uses `out.size()` and the
/// group size, so every rank must pass the same number of entries (include
/// the empty ones). `stats`, if non-null, is incremented by the payload
/// traffic (barrier/counts metadata excluded, as everywhere in this
/// layer). `segment_bytes` > 0 bounds every payload message of the
/// sparse and dense paths (chunked / pipelined by the transport).
std::vector<double> ExchangeGroupwise(const std::shared_ptr<Transport>& tr,
                                      std::span<const Outgoing> out, int tag,
                                      Mode mode = Mode::kAuto,
                                      ExchangeStats* stats = nullptr,
                                      std::int64_t segment_bytes = 0);

/// One logically-contiguous run of elements to redistribute, plus where
/// its incoming counterpart accumulates.
struct Segment {
  const double* data = nullptr;   // contiguous elements (may be null if 0)
  std::int64_t count = 0;         // number of elements
  std::int64_t slot_begin = 0;    // absolute slot of data[0] in the layout
  std::vector<double>* sink = nullptr;  // received elements are appended
  std::int64_t expect = 0;        // elements this rank receives (overlap)
};

/// Starts a nonblocking redistribution of `segments` onto `layout` over
/// the transport. All segments coalesce into one exchange regardless of
/// how many there are: the dense path runs one counts round plus one
/// payload Alltoallv; the coalesced path ships one combined message per
/// non-empty destination. Self-destined elements bypass the transport.
///
/// The segment data is copied out before this returns, so callers may
/// free their buffers immediately; sinks must stay alive (and must not be
/// resized by the caller) until the returned Poll reports completion.
/// `stats`, if non-null, is incremented synchronously at start time.
///
/// `segment_bytes` > 0 enables the large-message regime: the dense path
/// pipelines its Alltoallv blocks, the sparse path chunks its payloads,
/// and kAuto flips coalesced -> sparse exactly when the largest message
/// any rank could owe one destination (bounded by the destination's
/// capacity plus the k-counts header, a globally shared quantity) would
/// exceed segment_bytes. A forced kCoalesced stays unsegmented: its
/// expectation-terminated eager sends have no chunk protocol.
///
/// The hierarchical path (kHierarchical, or kAuto on a two-level cost
/// model when the group spans nodes) completes the whole exchange before
/// returning (an already-done Poll): its three node-aware phases are
/// blocking source-specific receives over Transport::Send/Recv, whose
/// senders every member derives from the node map. Safe -- every group
/// member reaches this call -- but a janus rank serializes its two
/// groups' exchanges instead of interleaving them.
Poll StartSegmentExchange(const std::shared_ptr<Transport>& tr,
                          const CapacityLayout& layout,
                          std::vector<Segment> segments, int tag,
                          Mode mode = Mode::kAuto,
                          ExchangeStats* stats = nullptr,
                          std::int64_t segment_bytes = 0);

}  // namespace exchange
}  // namespace jsort
