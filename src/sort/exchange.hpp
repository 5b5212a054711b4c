// Data-redistribution layer shared by the sorting algorithms.
//
// Every distributed sorter ends a level the same way: each rank holds runs
// of elements whose destinations are defined by a global slot interval
// (jquick) or by explicit buckets, each bound for one group rank (sample
// sort's bucket per rank, the multilevel sorter's piece per group), and
// the data must move so that every rank ends up with exactly its share.
// This layer factors that step out of the sorters and routes it over the
// jsort::Transport abstraction, so the same code runs on RBC, native-MPI
// and Icomm backends.
//
// Two entry points, one plan, four deliveries. Both entry points -- bucket
// (ExchangeBuckets) and segment (StartSegmentExchange) -- lower their
// exchange to one plan: per destination one message of k int64 header
// words followed by that destination's payload run. A segment exchange's
// header words are its per-segment counts, and its layout gives every
// rank its receive expectations, held per sink; the bucket exchange ships
// raw payload (k = 0) and knows no receive counts. The plan then goes out
// through exactly one implementation of each path:
//  * dense -- a counts round (the header rows, or each destination's
//    count when k = 0), then one payload Transport::Ialltoallv. 2(p-1)
//    startups per rank in a predictable pairwise schedule; right when
//    most destinations receive something (single-level sample sort);
//  * coalesced -- one eager send per non-empty destination, then a
//    membership-filtered probe drain that ends once the expectations are
//    met. No metadata round; needs expectations, so only a segment
//    exchange has it;
//  * sparse -- the same messages over Transport::IsparseAlltoallv, whose
//    two-lightweight-barrier termination needs no receive counts: one
//    startup per non-empty destination plus O(log p) barrier tokens, and
//    the only flat path that chunks its messages under a segment limit
//    without a counts round;
//  * hierarchical -- on two-level machines the traffic gathers at one
//    gateway per (node, remote node) pair, crosses the network in one
//    bundle per node pair and is scattered on the node: the three-phase
//    node-aware engine in exchange.cpp, over the transport's
//    point-to-point Send/Recv. Every receiver knows its senders and their
//    message count from the node map, so it needs neither a counts round
//    nor barriers.
// Received messages unpack through one routine: raw payload in source
// order, segment payload into the sinks its header words name.
//
// One mode rule, resolved from globally shared quantities only (the
// decision must be identical on every rank). kAuto: on a two-level cost
// model, a group that spans nodes goes hierarchical at every entry point.
// Otherwise a segment exchange coalesces -- at most one message per
// non-empty destination and no counts round, where the dense path pays
// 2(p-1) startups per rank -- unless a single message could exceed the
// segment limit, when it takes the chunk-capable sparse path; a raw
// exchange estimates its non-empty-destination fraction as f = buckets /
// (p-1) and goes dense at f >= 1/2, sparse below. Every explicit mode is
// honoured at both entry points, except that kCoalesced, whose drain ends
// on expectations, runs sparse on the bucket entry point, which has no
// receive counts.
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

/// Bound of the first wire frame of a hierarchical message, the size of
/// each rank's reusable receive buffer (smaller when segment_bytes is).
inline constexpr std::int64_t kFirstFrameBytes = 65536;

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

/// Delivery path selection (see the header comment for the rule).
enum class Mode {
  kAlltoallv,  // dense: counts round + one payload Transport::Ialltoallv
  kCoalesced,  // eager sends, expectation-terminated probe drain; runs
               // kSparse where receive counts are unknown (the bucket
               // exchange)
  kSparse,     // one message per non-empty destination over the
               // transport's sparse collective (barrier-terminated, no
               // expectations, chunked under a segment limit)
  kHierarchical,  // node-aware: per-destination traffic gathers on each
                  // node at one gateway per remote node, crosses the
                  // network once gateway-to-gateway in one bundle per node
                  // pair, and is scattered locally -- three point-to-point
                  // phases with known expectations, no barrier (the
                  // node-aware engine in exchange.cpp); byte-identical
                  // results to the flat paths. Collective and blocking at
                  // start. Degrades gracefully on a flat or single-node
                  // topology (only the intra phase runs).
  kAuto,       // hierarchical on a two-level cost model
               // (CostModel::Hierarchical()) when the group spans more
               // than one node; otherwise coalesced, or sparse past the
               // segment limit, for a segment exchange, and dense or
               // sparse by the estimated non-empty-destination fraction
               // for a raw one
};

/// Vnode map of the transport's group under the runtime's installed
/// topology (topo/topology.hpp): the node view behind kAuto's
/// hierarchical choice, the hierarchical engine and the multilevel
/// sorter's topology-derived branching factor. Purely local -- every
/// member computes the identical map.
topo::VnodeMap VnodesOfGroup(const Transport& tr);

/// Blocking bucket redistribution for exchanges whose receive counts are
/// not known in advance: bucket b occupies elements [offsets[b],
/// offsets[b+1]) of `elements` and goes to group rank dests[b]. A
/// destination's buckets are concatenated, in bucket order, into its one
/// message, and every rank returns the concatenation of what it received,
/// ordered by source rank. Single-level sample sort passes PartitionKWay's
/// layout with dests 0..p-1; the multilevel sorter passes its k pieces,
/// each bound for one member of its group. dests must ascend (equal
/// neighbours allowed) and offsets must not decrease, or UsageError. The
/// buckets ship from `elements` in place: no send-side copy on any path.
/// Empty messages are not transmitted, except on the dense path.
///
/// kAuto reads the bucket count as the fanout (see the header comment), so
/// every rank must pass the same number of buckets (include the empty
/// ones); kSparse delivers over the transport's sparse collective,
/// kAlltoallv runs the dense counts + payload rounds on every machine,
/// kHierarchical the node-aware engine, and kCoalesced runs kSparse.
/// `stats`, if non-null, is incremented by this call's payload traffic
/// (p-1 messages on the dense path, one per non-empty non-self message
/// elsewhere; barrier/counts metadata excluded, as everywhere in this
/// layer). `segment_bytes` > 0 bounds every payload message (pipelined
/// blocks on the dense path, chunks on the sparse path, frames on the
/// hierarchical one).
std::vector<double> ExchangeBuckets(Transport& tr,
                                    std::span<const double> elements,
                                    std::span<const std::int64_t> offsets,
                                    std::span<const int> dests, int tag,
                                    ExchangeStats* stats = nullptr,
                                    std::int64_t segment_bytes = 0,
                                    Mode mode = Mode::kAuto);

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
