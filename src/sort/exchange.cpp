#include "sort/exchange.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "topo/hier_exchange.hpp"

namespace jsort {
namespace exchange {
namespace {

void WaitPoll(const Poll& p) {
  while (!p()) {
    if (mpisim::Ctx().runtime->Aborted()) throw mpisim::AbortedError();
    std::this_thread::yield();
  }
}

/// Vnode map of the transport's group under the runtime's installed
/// topology: group ranks translate to world ranks, world ranks to nodes,
/// and maximal same-node runs become vnodes (topo/hier_exchange.hpp).
/// Purely local -- every member computes the identical map.
topo::VnodeMap VnodesOfGroup(const Transport& tr) {
  const mpisim::Runtime* rt = mpisim::Ctx().runtime;
  std::vector<int> node_of(static_cast<std::size_t>(tr.Size()));
  for (int r = 0; r < tr.Size(); ++r) {
    node_of[static_cast<std::size_t>(r)] = rt->NodeOf(tr.WorldRankOf(r));
  }
  return topo::VnodesOf(node_of);
}

/// kAuto routes hierarchically exactly when the cost model distinguishes
/// intra- from inter-node traffic AND the group actually spans more than
/// one vnode -- both globally shared facts, so the decision is identical
/// on every rank. On a flat cost model the node-aware detour could only
/// add phases, so the flat resolution below stays bit-for-bit unchanged.
bool AutoHier(const Transport& tr) {
  if (!mpisim::Ctx().runtime->options().cost.Hierarchical()) return false;
  return VnodesOfGroup(tr).Count() > 1;
}

/// Runs the three-phase node-aware exchange over the transport's
/// point-to-point Send/Recv, every phase on the caller's tag (the engine's
/// source-specific receives need no termination traffic). Blocking.
topo::HierReceived RunHier(Transport& tr,
                           std::span<const topo::BytePiece> pieces, int tag,
                           std::int64_t segment_bytes,
                           topo::HierLevelStats* hs) {
  const topo::HierWire wire{
      .send =
          [&](int dest, const std::byte* data, int bytes) {
            tr.Send(data, bytes, Datatype::kByte, dest, tag);
          },
      .recv =
          [&](int src, std::byte* buf, int capacity) {
            Status st;
            tr.Recv(buf, capacity, Datatype::kByte, src, tag, &st);
            return static_cast<int>(st.bytes);
          }};
  return topo::HierExchangeBytes(VnodesOfGroup(tr), tr.Rank(), pieces,
                                 segment_bytes, wire, hs);
}

/// The received doubles of a hierarchical exchange, source-ordered.
std::vector<double> ToDoubles(const topo::HierReceived& got) {
  std::vector<double> out(static_cast<std::size_t>(got.bytes) /
                          sizeof(double));
  got.CopyTo(reinterpret_cast<std::byte*>(out.data()));
  return out;
}

/// Folds one hierarchical run's per-level traffic into the caller stats.
void AddHierStats(ExchangeStats* stats, const topo::HierLevelStats& hs) {
  if (stats == nullptr) return;
  stats->segments += hs.intra_messages + hs.inter_messages;
  stats->intra_messages += hs.intra_messages;
  stats->intra_bytes += hs.intra_bytes;
  stats->inter_messages += hs.inter_messages;
  stats->inter_bytes += hs.inter_bytes;
}

/// Globally consistent kAuto resolution for the segment exchange. The
/// decision must be identical on every rank of the group (receivers
/// behave differently per mode), so it may only depend on quantities all
/// ranks share: the group size, the segment count, the layout and the
/// segment limit. There are two routes, and neither is dense: receive
/// expectations follow from the layout arithmetic, so the coalesced path
/// (one eager message per non-empty destination, at most p-1; no counts
/// round, no termination messages) never pays more startups than the
/// dense path's 2(p-1) per rank, and a jquick level reaches only O(1)
/// destinations. The only reason to leave it is the large-message regime:
/// the largest message any rank can owe one destination is the k-counts
/// header plus at most the destination's whole capacity, a bound every
/// rank computes identically from the layout. Past segment_bytes the
/// chunk-capable sparse collective takes over, because the coalesced
/// eager sends cannot bound their message size. (ExchangeGroupwise
/// resolves separately: there receive counts are unknown and
/// expectation-based termination is impossible.)
Mode Resolve(Mode mode, int p, std::size_t k, const CapacityLayout& layout,
             std::int64_t segment_bytes) {
  if (mode != Mode::kAuto) return mode;
  if (segment_bytes <= 0) return Mode::kCoalesced;
  std::int64_t max_cap = std::max(layout.cap_first, layout.cap_last);
  if (p > 2) max_cap = std::max(max_cap, layout.quota);
  const std::int64_t bound = (static_cast<std::int64_t>(k) + max_cap) *
                             static_cast<std::int64_t>(sizeof(double));
  return bound > segment_bytes ? Mode::kSparse : Mode::kCoalesced;
}

/// Extent of the self-describing segment message ([int64 counts[k]]
/// [payload]) at the front of `bytes`.
std::size_t MessageExtent(std::span<const std::byte> bytes, std::size_t k) {
  std::size_t len = k * sizeof(std::int64_t);
  if (bytes.size() < len) {
    throw mpisim::Error("jsort::exchange: malformed exchange message");
  }
  for (std::size_t j = 0; j < k; ++j) {
    std::int64_t n = 0;
    std::memcpy(&n, bytes.data() + j * sizeof n, sizeof n);
    if (n < 0 || static_cast<std::uint64_t>(n) >
                     (bytes.size() - len) / sizeof(double)) {
      throw mpisim::Error("jsort::exchange: malformed exchange message");
    }
    len += static_cast<std::size_t>(n) * sizeof(double);
  }
  return len;
}

/// Shared state of one in-flight segment exchange; the returned Poll holds
/// it alive.
struct SegmentState {
  std::shared_ptr<Transport> tr;
  int p = 0;
  int me = 0;
  std::size_t k = 0;
  int tag = 0;
  std::int64_t segment_bytes = 0;
  std::vector<Segment> segments;
  std::vector<std::int64_t> remaining;  // per segment, elements still owed

  // Send side (both modes).
  std::vector<std::int64_t> counts_matrix;  // [dest * k + seg]
  std::vector<double> payload;              // grouped by dest, seg order
  std::vector<int> sendcounts, sdispls;     // per dest, elements

  // Dense-path state.
  int phase = 0;
  Poll pending;
  std::vector<std::int64_t> incoming_matrix;  // [src * k + seg]
  std::vector<int> recvcounts, rdispls;
  std::vector<double> staging;

  bool coalesced = false;
  bool done = false;

  // Sparse-path state.
  bool sparse = false;
  std::vector<SparseDelivery> deliveries;

  bool Step();
  void StartDenseCountsRound();
  void FinishDense();
  bool DrainCoalesced();
  void UnpackMessage(const std::byte* msg, std::size_t size);
};

bool SegmentState::Step() {
  if (done) return true;
  if (sparse) {
    if (!pending()) return false;
    for (const SparseDelivery& d : deliveries) {
      UnpackMessage(d.bytes.data(), d.bytes.size());
    }
    deliveries.clear();
    for (std::size_t j = 0; j < k; ++j) {
      if (remaining[j] != 0) {
        throw mpisim::Error(
            "jsort::exchange: sparse exchange delivered a different element "
            "count than the layout overlap");
      }
    }
    done = true;
    return true;
  }
  if (coalesced) {
    if (!DrainCoalesced()) return false;
    done = true;
    return true;
  }
  if (!pending()) return false;
  if (phase == 0) {
    // Counts known: size the staging buffer and start the payload round.
    recvcounts.assign(static_cast<std::size_t>(p), 0);
    rdispls.assign(static_cast<std::size_t>(p), 0);
    std::int64_t total = 0;
    for (int s = 0; s < p; ++s) {
      std::int64_t from_s = 0;
      for (std::size_t j = 0; j < k; ++j) {
        from_s += incoming_matrix[static_cast<std::size_t>(s) * k + j];
      }
      recvcounts[static_cast<std::size_t>(s)] = static_cast<int>(from_s);
      rdispls[static_cast<std::size_t>(s)] = static_cast<int>(total);
      total += from_s;
    }
    staging.resize(static_cast<std::size_t>(total));
    pending = tr->Ialltoallv(payload.data(), sendcounts, sdispls,
                             Datatype::kFloat64, staging.data(), recvcounts,
                             rdispls, tag, segment_bytes);
    phase = 1;
    if (!pending()) return false;
  }
  FinishDense();
  done = true;
  return true;
}

void SegmentState::StartDenseCountsRound() {
  // k int64 entries per peer, uniform (the self block is a local copy of
  // zeros). The transport copies these small arrays at call time. The
  // segment limit applies here too, so even a k*8-byte counts message
  // never exceeds the configured bound.
  incoming_matrix.assign(static_cast<std::size_t>(p) * k, 0);
  std::vector<int> ccounts(static_cast<std::size_t>(p),
                           static_cast<int>(k));
  std::vector<int> cdispls(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    cdispls[static_cast<std::size_t>(i)] = i * static_cast<int>(k);
  }
  pending = tr->Ialltoallv(counts_matrix.data(), ccounts, cdispls,
                           Datatype::kInt64, incoming_matrix.data(), ccounts,
                           cdispls, tag, segment_bytes);
}

void SegmentState::FinishDense() {
  // Split the per-source staging blocks into the per-segment sinks.
  for (int s = 0; s < p; ++s) {
    const double* cursor =
        staging.data() + static_cast<std::size_t>(
                             rdispls[static_cast<std::size_t>(s)]);
    for (std::size_t j = 0; j < k; ++j) {
      const std::int64_t n =
          incoming_matrix[static_cast<std::size_t>(s) * k + j];
      if (n != 0) {
        segments[j].sink->insert(segments[j].sink->end(), cursor, cursor + n);
        remaining[j] -= n;
      }
      cursor += n;
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    if (remaining[j] != 0) {
      throw mpisim::Error(
          "jsort::exchange: received element count disagrees with the "
          "layout overlap");
    }
  }
}

void SegmentState::UnpackMessage(const std::byte* msg, std::size_t size) {
  // [int64 seg_counts[k]][segment payloads in order].
  if (size < k * sizeof(std::int64_t)) {
    throw mpisim::Error("jsort::exchange: malformed exchange message");
  }
  std::size_t off = k * sizeof(std::int64_t);
  for (std::size_t j = 0; j < k; ++j) {
    std::int64_t n = 0;
    std::memcpy(&n, msg + j * sizeof(std::int64_t), sizeof n);
    if (n < 0 ||
        static_cast<std::size_t>(n) > (size - off) / sizeof(double)) {
      throw mpisim::Error(
          "jsort::exchange: exchange message payload disagrees with its "
          "header");
    }
    if (n != 0) {
      std::vector<double>& sink = *segments[j].sink;
      const std::size_t old = sink.size();
      sink.resize(old + static_cast<std::size_t>(n));
      std::memcpy(sink.data() + old, msg + off,
                  static_cast<std::size_t>(n) * sizeof(double));
      off += static_cast<std::size_t>(n) * sizeof(double);
      remaining[j] -= n;
    }
    if (remaining[j] < 0) {
      throw mpisim::Error(
          "jsort::exchange: received more elements than the layout "
          "overlap");
    }
  }
}

bool SegmentState::DrainCoalesced() {
  bool all = true;
  for (std::size_t j = 0; j < k; ++j) all &= remaining[j] == 0;
  while (!all) {
    Status st;
    if (!tr->IprobeAny(tag, &st)) return false;
    std::vector<std::byte> msg(st.bytes);
    tr->Recv(msg.data(), static_cast<int>(st.bytes), Datatype::kByte,
             st.source, tag);
    UnpackMessage(msg.data(), msg.size());
    all = true;
    for (std::size_t j = 0; j < k; ++j) all &= remaining[j] == 0;
  }
  return true;
}

}  // namespace

std::int64_t ExscanCount(Transport& tr, std::int64_t mine, int tag) {
  std::int64_t incl = 0;
  Poll s = tr.Iscan(&mine, &incl, 1, Datatype::kInt64, ReduceOp::kSum, tag);
  WaitPoll(s);
  return incl - mine;
}

SendPlan PlanFromInterval(const CapacityLayout& layout,
                          std::int64_t slot_begin, std::int64_t n, int p) {
  SendPlan plan;
  plan.counts.assign(static_cast<std::size_t>(p), 0);
  plan.displs.assign(static_cast<std::size_t>(p), 0);
  if (n > 0) {
    for (const Chunk& c : AssignChunks(layout, slot_begin, slot_begin + n)) {
      plan.counts[static_cast<std::size_t>(c.target)] +=
          static_cast<int>(c.count);
    }
  }
  int off = 0;
  for (int i = 0; i < p; ++i) {
    plan.displs[static_cast<std::size_t>(i)] = off;
    off += plan.counts[static_cast<std::size_t>(i)];
  }
  return plan;
}

std::vector<double> ExchangeBuckets(
    Transport& tr, const std::vector<std::vector<double>>& buckets, int tag,
    ExchangeStats* stats, std::int64_t segment_bytes, Mode mode) {
  const int p = tr.Size();
  if (static_cast<int>(buckets.size()) != p) {
    throw mpisim::UsageError(
        "jsort::exchange::ExchangeBuckets: one bucket per rank required");
  }
  // Flatten into the bucket-major layout of the flat variant and forward.
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int i = 0; i < p; ++i) {
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] +
        static_cast<std::int64_t>(buckets[static_cast<std::size_t>(i)].size());
  }
  std::vector<double> flat(static_cast<std::size_t>(offsets.back()));
  for (int i = 0; i < p; ++i) {
    std::copy(buckets[static_cast<std::size_t>(i)].begin(),
              buckets[static_cast<std::size_t>(i)].end(),
              flat.begin() + offsets[static_cast<std::size_t>(i)]);
  }
  return ExchangeBuckets(tr, flat, offsets, tag, stats, segment_bytes, mode);
}

std::vector<double> ExchangeBuckets(Transport& tr,
                                    std::span<const double> elements,
                                    std::span<const std::int64_t> offsets,
                                    int tag, ExchangeStats* stats,
                                    std::int64_t segment_bytes, Mode mode) {
  const int p = tr.Size();
  const int me = tr.Rank();
  if (static_cast<int>(offsets.size()) != p + 1) {
    throw mpisim::UsageError(
        "jsort::exchange::ExchangeBuckets: offsets must have Size()+1 "
        "entries");
  }

  if (mode == Mode::kHierarchical ||
      (mode == Mode::kAuto && AutoHier(tr))) {
    // Node-aware delivery: the bucket blocks are already contiguous and
    // per-destination, so they feed the engine without any copy -- the
    // self bucket included (the engine keeps it local and splices it into
    // the source-ordered result, exactly where the dense path's local
    // copy lands). No counts round: the engine's messages are
    // self-describing.
    std::vector<topo::BytePiece> pieces;
    std::int64_t nonempty = 0, total_out = 0;
    for (int i = 0; i < p; ++i) {
      const std::int64_t n = offsets[static_cast<std::size_t>(i) + 1] -
                             offsets[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      pieces.push_back(topo::BytePiece{
          i,
          reinterpret_cast<const std::byte*>(
              elements.data() + offsets[static_cast<std::size_t>(i)]),
          n * static_cast<std::int64_t>(sizeof(double))});
      if (i != me) {
        ++nonempty;
        total_out += n;
      }
    }
    topo::HierLevelStats hs;
    const topo::HierReceived got =
        RunHier(tr, pieces, tag, segment_bytes, &hs);
    if (stats != nullptr) {
      stats->messages_sent += nonempty;
      stats->elements_sent += total_out;
    }
    AddHierStats(stats, hs);
    return ToDoubles(got);
  }
  // Bucket-major input needs no send-side copy: the per-peer blocks are
  // already contiguous, and the self bucket rides along as a zero-count
  // gap (copied locally below).
  std::vector<int> sendcounts(static_cast<std::size_t>(p)),
      sdispls(static_cast<std::size_t>(p));
  std::vector<std::int64_t> my_counts(static_cast<std::size_t>(p));
  std::int64_t total_out = 0;
  for (int i = 0; i < p; ++i) {
    const std::int64_t n = offsets[static_cast<std::size_t>(i) + 1] -
                           offsets[static_cast<std::size_t>(i)];
    my_counts[static_cast<std::size_t>(i)] = n;
    sendcounts[static_cast<std::size_t>(i)] = i == me ? 0 : static_cast<int>(n);
    sdispls[static_cast<std::size_t>(i)] =
        static_cast<int>(offsets[static_cast<std::size_t>(i)]);
    if (i != me) total_out += n;
  }

  // Counts round: one int64 per peer.
  std::vector<std::int64_t> in_counts(static_cast<std::size_t>(p), 0);
  std::vector<int> ones(static_cast<std::size_t>(p), 1),
      iota(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) iota[static_cast<std::size_t>(i)] = i;
  WaitPoll(tr.Ialltoallv(my_counts.data(), ones, iota, Datatype::kInt64,
                         in_counts.data(), ones, iota, tag));

  // Payload round. The self block is a zero-count gap in the exchange
  // (matching sendcounts[me] == 0 above); its slot in `out` is filled
  // directly from the input.
  std::vector<int> recvcounts(static_cast<std::size_t>(p)),
      rdispls(static_cast<std::size_t>(p));
  std::int64_t total_in = 0;
  for (int i = 0; i < p; ++i) {
    recvcounts[static_cast<std::size_t>(i)] =
        i == me ? 0 : static_cast<int>(in_counts[static_cast<std::size_t>(i)]);
    rdispls[static_cast<std::size_t>(i)] = static_cast<int>(total_in);
    total_in += in_counts[static_cast<std::size_t>(i)];
  }
  std::vector<double> out(static_cast<std::size_t>(total_in));
  std::copy(elements.begin() + offsets[static_cast<std::size_t>(me)],
            elements.begin() + offsets[static_cast<std::size_t>(me) + 1],
            out.begin() + rdispls[static_cast<std::size_t>(me)]);
  WaitPoll(tr.Ialltoallv(elements.data(), sendcounts, sdispls,
                         Datatype::kFloat64, out.data(), recvcounts, rdispls,
                         tag, segment_bytes));
  if (stats != nullptr) {
    stats->messages_sent += p - 1;
    stats->elements_sent += total_out;  // self excluded
    for (int i = 0; i < p; ++i) {
      if (i == me) continue;
      stats->segments += mpisim::AlltoallvSegmentsOf(
          sendcounts[static_cast<std::size_t>(i)], sizeof(double),
          segment_bytes);
    }
  }
  return out;
}

std::vector<double> ExchangeGroupwise(const std::shared_ptr<Transport>& tr,
                                      std::span<const Outgoing> out, int tag,
                                      Mode mode, ExchangeStats* stats,
                                      std::int64_t segment_bytes) {
  if (tr == nullptr) {
    throw mpisim::UsageError("jsort::exchange::ExchangeGroupwise: null "
                             "transport");
  }
  const int p = tr->Size();
  const int me = tr->Rank();

  // Globally consistent resolution from the entry count (identical on
  // every rank by contract): a rank reaches at most out.size() peers, so
  // the estimated non-empty-destination fraction is out.size()/(p-1).
  // Coalesced delivery needs known receive counts, which this entry point
  // exists to avoid -- it degrades to the sparse collective.
  Mode resolved = mode;
  if (resolved == Mode::kAuto) {
    if (AutoHier(*tr)) {
      resolved = Mode::kHierarchical;
    } else {
      const auto max_targets = static_cast<std::int64_t>(out.size());
      resolved = 2 * max_targets >= p - 1 ? Mode::kAlltoallv : Mode::kSparse;
    }
  }
  if (resolved == Mode::kCoalesced) resolved = Mode::kSparse;

  // Per-destination element totals (entries to one destination coalesce,
  // in entry order).
  std::vector<std::int64_t> to(static_cast<std::size_t>(p), 0);
  for (const Outgoing& o : out) {
    if (o.dest < 0 || o.dest >= p) {
      throw mpisim::UsageError(
          "jsort::exchange::ExchangeGroupwise: destination out of range");
    }
    if (o.count < 0) {
      throw mpisim::UsageError(
          "jsort::exchange::ExchangeGroupwise: negative count");
    }
    to[static_cast<std::size_t>(o.dest)] += o.count;
  }
  std::int64_t nonempty = 0, elements = 0;
  for (int d = 0; d < p; ++d) {
    if (d == me || to[static_cast<std::size_t>(d)] == 0) continue;
    ++nonempty;
    elements += to[static_cast<std::size_t>(d)];
  }
  if (stats != nullptr) {
    stats->messages_sent += resolved == Mode::kAlltoallv
                                ? static_cast<std::int64_t>(p - 1)
                                : nonempty;
    stats->elements_sent += elements;
    // The hierarchical path reports its wire traffic per phase after the
    // run (AddHierStats); the flat paths mirror the backend segmentation
    // arithmetic here.
    for (int d = 0; d < p && resolved != Mode::kHierarchical; ++d) {
      if (d == me) continue;
      const std::int64_t to_d = to[static_cast<std::size_t>(d)];
      if (resolved == Mode::kSparse) {
        if (to_d != 0) {
          stats->segments += mpisim::SparseChunksOf(
              to_d * static_cast<std::int64_t>(sizeof(double)),
              segment_bytes);
        }
      } else {
        stats->segments += mpisim::AlltoallvSegmentsOf(
            to_d, sizeof(double), segment_bytes);
      }
    }
  }

  if (resolved == Mode::kHierarchical) {
    // Per-destination byte pieces (entries to one destination coalesce in
    // entry order, exactly as the sparse path ships them), run through the
    // node-aware engine. The self piece rides along: the engine keeps it
    // local and splices it into the source-ordered result, so the output
    // is byte-identical to the flat paths. Blocking; collective over the
    // group like every path of this entry point.
    std::vector<int> entries(static_cast<std::size_t>(p), 0);
    std::vector<const double*> only(static_cast<std::size_t>(p), nullptr);
    for (const Outgoing& o : out) {
      if (o.count == 0) continue;
      ++entries[static_cast<std::size_t>(o.dest)];
      only[static_cast<std::size_t>(o.dest)] = o.data;
    }
    std::vector<std::vector<double>> msgs(static_cast<std::size_t>(p));
    for (const Outgoing& o : out) {
      if (o.count == 0) continue;
      const auto di = static_cast<std::size_t>(o.dest);
      if (entries[di] > 1) msgs[di].insert(msgs[di].end(), o.data,
                                           o.data + o.count);
    }
    std::vector<topo::BytePiece> pieces;
    for (int d = 0; d < p; ++d) {
      const auto di = static_cast<std::size_t>(d);
      if (to[di] == 0) continue;
      const double* src = entries[di] == 1 ? only[di] : msgs[di].data();
      pieces.push_back(topo::BytePiece{
          d, reinterpret_cast<const std::byte*>(src),
          to[di] * static_cast<std::int64_t>(sizeof(double))});
    }
    topo::HierLevelStats hs;
    const topo::HierReceived got =
        RunHier(*tr, pieces, tag, segment_bytes, &hs);
    AddHierStats(stats, hs);
    return ToDoubles(got);
  }

  if (resolved == Mode::kSparse) {
    // One raw-payload message per non-empty destination; the self block
    // joins the sparse call so the collective's source-ordered delivery
    // already interleaves it correctly. A destination fed by one entry
    // (the only case the multilevel sorter produces) ships straight from
    // the caller's buffer -- the collective copies blocks out at call
    // time; only multi-entry destinations need a coalescing buffer.
    std::vector<int> entries(static_cast<std::size_t>(p), 0);
    for (const Outgoing& o : out) {
      if (o.count != 0) ++entries[static_cast<std::size_t>(o.dest)];
    }
    std::vector<std::vector<double>> msgs(static_cast<std::size_t>(p));
    std::vector<SparseBlock> blocks;
    for (const Outgoing& o : out) {
      if (o.count == 0) continue;
      const auto di = static_cast<std::size_t>(o.dest);
      if (entries[di] == 1) {
        blocks.push_back(
            SparseBlock{o.dest, o.data, static_cast<int>(o.count)});
      } else {
        msgs[di].insert(msgs[di].end(), o.data, o.data + o.count);
      }
    }
    for (int d = 0; d < p; ++d) {
      const auto& m = msgs[static_cast<std::size_t>(d)];
      if (m.empty()) continue;
      blocks.push_back(
          SparseBlock{d, m.data(), static_cast<int>(m.size())});
    }
    std::vector<SparseDelivery> deliveries;
    WaitPoll(tr->IsparseAlltoallv(blocks, Datatype::kFloat64, &deliveries,
                                  tag, segment_bytes));
    std::int64_t total = 0;
    for (const SparseDelivery& d : deliveries) {
      total += static_cast<std::int64_t>(d.bytes.size() / sizeof(double));
    }
    std::vector<double> result(static_cast<std::size_t>(total));
    std::size_t cursor = 0;
    for (const SparseDelivery& d : deliveries) {
      std::memcpy(result.data() + cursor, d.bytes.data(), d.bytes.size());
      cursor += d.bytes.size() / sizeof(double);
    }
    return result;
  }

  // Dense path: group the payload by destination and run the counts +
  // payload rounds; the flat bucket exchange already implements exactly
  // that (self bucket included as a local copy).
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int d = 0; d < p; ++d) {
    offsets[static_cast<std::size_t>(d) + 1] =
        offsets[static_cast<std::size_t>(d)] +
        to[static_cast<std::size_t>(d)];
  }
  std::vector<double> flat(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Outgoing& o : out) {
    if (o.count == 0) continue;
    std::copy(o.data, o.data + o.count,
              flat.begin() + cursor[static_cast<std::size_t>(o.dest)]);
    cursor[static_cast<std::size_t>(o.dest)] += o.count;
  }
  return ExchangeBuckets(*tr, flat, offsets, tag, nullptr, segment_bytes);
}

Poll StartSegmentExchange(const std::shared_ptr<Transport>& tr,
                          const CapacityLayout& layout,
                          std::vector<Segment> segments, int tag, Mode mode,
                          ExchangeStats* stats,
                          std::int64_t segment_bytes) {
  if (tr == nullptr) {
    throw mpisim::UsageError("jsort::exchange: null transport");
  }
  auto st = std::make_shared<SegmentState>();
  st->tr = tr;
  st->p = tr->Size();
  st->me = tr->Rank();
  st->k = segments.size();
  st->tag = tag;
  st->segment_bytes = segment_bytes;
  st->segments = std::move(segments);
  st->remaining.reserve(st->k);
  st->counts_matrix.assign(static_cast<std::size_t>(st->p) * st->k, 0);

  // Interval computation -> per-destination chunks. Self chunks bypass the
  // transport and land in their sinks right away.
  for (std::size_t j = 0; j < st->k; ++j) {
    Segment& seg = st->segments[j];
    if (seg.sink == nullptr) {
      throw mpisim::UsageError("jsort::exchange: segment without sink");
    }
    st->remaining.push_back(seg.expect);
    if (seg.count == 0) continue;
    std::int64_t cursor = 0;
    for (const Chunk& c :
         AssignChunks(layout, seg.slot_begin, seg.slot_begin + seg.count)) {
      if (c.target == st->me) {
        seg.sink->insert(seg.sink->end(), seg.data + cursor,
                         seg.data + cursor + c.count);
        st->remaining[j] -= c.count;
      } else {
        st->counts_matrix[static_cast<std::size_t>(c.target) * st->k + j] +=
            c.count;
      }
      cursor += c.count;
    }
  }

  const Mode resolved = mode == Mode::kAuto && AutoHier(*tr)
                            ? Mode::kHierarchical
                            : Resolve(mode, st->p, st->k, layout,
                                      segment_bytes);
  st->coalesced = resolved == Mode::kCoalesced;
  st->sparse = resolved == Mode::kSparse;
  const bool hier = resolved == Mode::kHierarchical;

  // Per-destination totals (and traffic accounting) are mode-independent.
  std::int64_t nonempty = 0, elements = 0;
  st->sendcounts.assign(static_cast<std::size_t>(st->p), 0);
  st->sdispls.assign(static_cast<std::size_t>(st->p), 0);
  std::int64_t off = 0;
  for (int d = 0; d < st->p; ++d) {
    std::int64_t to_d = 0;
    for (std::size_t j = 0; j < st->k; ++j) {
      to_d += st->counts_matrix[static_cast<std::size_t>(d) * st->k + j];
    }
    st->sendcounts[static_cast<std::size_t>(d)] = static_cast<int>(to_d);
    st->sdispls[static_cast<std::size_t>(d)] = static_cast<int>(off);
    off += to_d;
    if (to_d != 0) {
      ++nonempty;
      elements += to_d;
    }
  }
  if (stats != nullptr) {
    stats->messages_sent += st->coalesced || st->sparse || hier
                                ? nonempty
                                : static_cast<std::int64_t>(st->p - 1);
    stats->elements_sent += elements;
    // Wire-level accounting mirrors each backend's segmentation
    // arithmetic: the dense path pipelines every per-peer block
    // (zero-count blocks still cost one empty message), the sparse path
    // chunks each self-describing message ([k int64s][payload]), the
    // coalesced path ships unsegmented. The hierarchical path reports its
    // wire traffic per phase after the run (AddHierStats) instead.
    const std::size_t header = st->k * sizeof(std::int64_t);
    for (int d = 0; d < st->p && !hier; ++d) {
      if (d == st->me) continue;
      const std::int64_t to_d = st->sendcounts[static_cast<std::size_t>(d)];
      if (st->sparse) {
        if (to_d != 0) {
          stats->segments += mpisim::SparseChunksOf(
              static_cast<std::int64_t>(header) +
                  to_d * static_cast<std::int64_t>(sizeof(double)),
              segment_bytes);
        }
      } else if (st->coalesced) {
        if (to_d != 0) stats->segments += 1;
      } else {
        stats->segments += mpisim::AlltoallvSegmentsOf(
            to_d, sizeof(double), segment_bytes);
      }
    }
  }

  if (st->coalesced || st->sparse || hier) {
    // One self-describing message per non-empty destination:
    // [int64 seg_counts[k]][segment payloads in order]. Built in a single
    // chunk walk per segment with per-destination write cursors (segments
    // are visited in order, so each message's payload is segment-ordered).
    // The coalesced path ships them as eager sends and the Poll drains
    // this rank's own expectations; the sparse path hands them to the
    // transport's barrier-terminated sparse collective instead.
    const std::size_t header = st->k * sizeof(std::int64_t);
    std::vector<std::vector<std::byte>> msgs(
        static_cast<std::size_t>(st->p));
    std::vector<std::size_t> wcursor(static_cast<std::size_t>(st->p),
                                     header);
    for (int d = 0; d < st->p; ++d) {
      if (st->sendcounts[static_cast<std::size_t>(d)] == 0) continue;
      msgs[static_cast<std::size_t>(d)].resize(
          header + static_cast<std::size_t>(
                       st->sendcounts[static_cast<std::size_t>(d)]) *
                       sizeof(double));
      std::memcpy(msgs[static_cast<std::size_t>(d)].data(),
                  st->counts_matrix.data() +
                      static_cast<std::size_t>(d) * st->k,
                  header);
    }
    for (std::size_t j = 0; j < st->k; ++j) {
      const Segment& seg = st->segments[j];
      if (seg.count == 0) continue;
      std::int64_t read = 0;
      for (const Chunk& c :
           AssignChunks(layout, seg.slot_begin, seg.slot_begin + seg.count)) {
        if (c.target != st->me) {
          const auto di = static_cast<std::size_t>(c.target);
          std::memcpy(msgs[di].data() + wcursor[di], seg.data + read,
                      static_cast<std::size_t>(c.count) * sizeof(double));
          wcursor[di] += static_cast<std::size_t>(c.count) * sizeof(double);
        }
        read += c.count;
      }
    }
    if (hier) {
      // Node-aware delivery of the same self-describing messages: the
      // engine merges them per node and per destination on the wire, and
      // hands back the messages addressed to this rank in source-rank
      // order, each part a run of whole messages whose extents follow
      // from their own counts headers ([k int64s] + payload). Blocking at
      // start: the three point-to-point phases complete before this
      // returns with an already-done Poll (every group member reaches
      // this same call; a janus rank simply finishes one group's exchange
      // before starting the other's -- the waits-for chain over adjacent
      // groups is acyclic and cannot deadlock).
      std::vector<topo::BytePiece> pieces;
      for (int d = 0; d < st->p; ++d) {
        const auto& msg = msgs[static_cast<std::size_t>(d)];
        if (msg.empty()) continue;
        pieces.push_back(topo::BytePiece{
            d, msg.data(), static_cast<std::int64_t>(msg.size())});
      }
      topo::HierLevelStats hs;
      const topo::HierReceived got =
          RunHier(*st->tr, pieces, tag, segment_bytes, &hs);
      AddHierStats(stats, hs);
      for (const std::span<const std::byte> part : got.parts) {
        for (std::size_t at = 0; at < part.size();) {
          const std::size_t len = MessageExtent(part.subspan(at), st->k);
          st->UnpackMessage(part.data() + at, len);
          at += len;
        }
      }
      for (std::size_t j = 0; j < st->k; ++j) {
        if (st->remaining[j] != 0) {
          throw mpisim::Error(
              "jsort::exchange: hierarchical exchange delivered a "
              "different element count than the layout overlap");
        }
      }
      st->done = true;
      return [] { return true; };
    }
    if (st->sparse) {
      std::vector<SparseBlock> blocks;
      blocks.reserve(static_cast<std::size_t>(nonempty));
      for (int d = 0; d < st->p; ++d) {
        const auto& msg = msgs[static_cast<std::size_t>(d)];
        if (msg.empty()) continue;
        blocks.push_back(SparseBlock{d, msg.data(),
                                     static_cast<int>(msg.size())});
      }
      // The collective copies the blocks out eagerly, so `msgs` may die
      // with this scope.
      st->pending = st->tr->IsparseAlltoallv(blocks, Datatype::kByte,
                                             &st->deliveries, tag,
                                             segment_bytes);
    } else {
      for (int d = 0; d < st->p; ++d) {
        const auto& msg = msgs[static_cast<std::size_t>(d)];
        if (msg.empty()) continue;
        st->tr->Send(msg.data(), static_cast<int>(msg.size()),
                     Datatype::kByte, d, tag);
      }
    }
    return [st] { return st->Step(); };
  }

  // Dense path: flatten the payload grouped by destination, then run the
  // counts round followed by the payload Alltoallv.
  st->payload.resize(static_cast<std::size_t>(off));
  {
    std::vector<std::int64_t> cursor(st->sdispls.begin(), st->sdispls.end());
    for (std::size_t j = 0; j < st->k; ++j) {
      const Segment& seg = st->segments[j];
      if (seg.count == 0) continue;
      std::int64_t read = 0;
      for (const Chunk& c :
           AssignChunks(layout, seg.slot_begin, seg.slot_begin + seg.count)) {
        if (c.target != st->me) {
          std::memcpy(st->payload.data() +
                          cursor[static_cast<std::size_t>(c.target)],
                      seg.data + read,
                      static_cast<std::size_t>(c.count) * sizeof(double));
          cursor[static_cast<std::size_t>(c.target)] += c.count;
        }
        read += c.count;
      }
    }
  }
  st->StartDenseCountsRound();
  return [st] { return st->Step(); };
}

}  // namespace exchange
}  // namespace jsort
