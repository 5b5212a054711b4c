#include "sort/exchange.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "topo/hier_exchange.hpp"

namespace jsort {
namespace exchange {

topo::VnodeMap VnodesOfGroup(const Transport& tr) {
  const mpisim::Runtime& rt = *mpisim::Ctx().runtime;
  return topo::VnodesOf(tr.Size(),
                        [&](int r) { return rt.NodeOf(tr.WorldRankOf(r)); });
}

namespace {

/// Bytes of one payload element, and of one header word.
constexpr std::size_t kWord = sizeof(double);
static_assert(sizeof(std::int64_t) == kWord);

/// Copies `n` 8-byte words: int64 header words and double payload share
/// one message buffer.
void CopyWords(void* to, const void* from, std::int64_t n) {
  if (n > 0) std::memcpy(to, from, static_cast<std::size_t>(n) * kWord);
}

/// The one mode rule. kAuto reads only what every rank of the group
/// shares, so every rank resolves alike. On a two-level cost model a group
/// that spans more than one vnode goes hierarchical. Otherwise a plan with
/// receive expectations (a segment exchange) coalesces unless one message
/// could exceed the segment limit -- `bound`, its header plus the largest
/// capacity, is a layout fact -- since the eager sends cannot chunk and
/// the sparse collective can. A raw plan goes dense when `fanout`, its
/// entries per rank, reaches half the peers (most are hit anyway, and the
/// pairwise schedule avoids contention), and sparse below. The coalesced
/// drain ends on expectations; without them kCoalesced runs sparse.
Mode Resolve(Mode mode, const Transport& tr, bool expectations,
             std::int64_t fanout, std::int64_t bound,
             std::int64_t segment_bytes) {
  if (mode == Mode::kAuto) {
    if (mpisim::Ctx().runtime->options().cost.Hierarchical() &&
        VnodesOfGroup(tr).Count() > 1) {
      return Mode::kHierarchical;
    }
    if (expectations) {
      return segment_bytes > 0 && bound > segment_bytes ? Mode::kSparse
                                                        : Mode::kCoalesced;
    }
    return 2 * fanout >= tr.Size() - 1 ? Mode::kAlltoallv : Mode::kSparse;
  }
  return mode == Mode::kCoalesced && !expectations ? Mode::kSparse : mode;
}

/// One exchange lowered to its messages, and their delivery. Destination
/// d's message is k int64 header words -- a segment exchange's per-segment
/// counts; k = 0 for raw payload -- followed by n[d] payload elements, at
/// words [at[d], at[d] + k + n[d]) of `words`. Only non-empty messages
/// travel, except on the dense path. A raw message lands in `out`, which
/// every path fills in source order; a segment message's header words
/// route its payload into the sinks and pay off their expectations.
struct Plan {
  Plan(Transport& t, int tag_, std::int64_t segment_bytes_,
       std::size_t k_ = 0)
      : tr(&t), p(t.Size()), me(t.Rank()), tag(tag_),
        segment_bytes(segment_bytes_), k(k_) {}

  Transport* tr;
  int p, me, tag;
  std::int64_t segment_bytes;
  std::size_t k;
  const double* words = nullptr;
  std::vector<double> owned;  // backs `words` where the plan copied
  std::vector<std::int64_t> at, n;
  std::vector<std::vector<double>*> sinks;
  std::vector<std::int64_t> owed;  // per sink, elements still expected
  std::vector<double> out;

  // Delivery state.
  Mode mode = Mode::kAlltoallv;
  bool done = false;
  Poll pending;
  bool counted = false;             // dense: the counts round is done
  std::vector<std::int64_t> rows;   // dense: received header rows
  std::vector<int> rc, rd;          // dense: payload per source
  std::vector<double> staging;      // dense: segment payload
  std::vector<SparseDelivery> got;  // sparse
  topo::HierLevelStats hs;          // hierarchical

  const void* Message(int d) const { return words + at[d]; }
  std::int64_t Words(int d) const {
    return static_cast<std::int64_t>(k) + n[d];
  }
  bool Met() const {
    return std::all_of(owed.begin(), owed.end(),
                       [](std::int64_t e) { return e == 0; });
  }

  void Start(Mode m, ExchangeStats* stats);
  void StartPayload();
  void Hierarchical();
  bool Step();
  std::size_t Unpack(const std::byte* header, const std::byte* payload,
                     std::size_t bytes);
  void UnpackRun(std::span<const std::byte> run);
  void Count(ExchangeStats* s) const;
};

/// Starts the delivery: dense, the counts round (each destination's header
/// row, or its count when k = 0); coalesced, the eager sends; sparse, the
/// collective; hierarchical, the whole blocking exchange.
void Plan::Start(Mode m, ExchangeStats* stats) {
  mode = m;
  if (mode == Mode::kAlltoallv) {
    const int w = std::max(static_cast<int>(k), 1);
    std::vector<int> counts(static_cast<std::size_t>(p), w), sd, rdw;
    for (int d = 0; d < p; ++d) {
      sd.push_back(k != 0 ? static_cast<int>(at[d]) : d);
      rdw.push_back(d * w);
    }
    rows.assign(static_cast<std::size_t>(p * w), 0);
    const void* from = k != 0 ? static_cast<const void*>(words) : n.data();
    pending = tr->Ialltoallv(from, counts, sd, Datatype::kInt64, rows.data(),
                             counts, rdw, tag, segment_bytes);
  } else if (mode == Mode::kHierarchical) {
    Hierarchical();
  } else {
    std::vector<SparseBlock> blocks;
    for (int d = 0; d < p; ++d) {
      if (n[d] == 0) continue;
      const int len = static_cast<int>(Words(d));
      if (mode == Mode::kCoalesced) {
        tr->Send(Message(d), len, Datatype::kFloat64, d, tag);
      } else {
        blocks.push_back(SparseBlock{d, Message(d), len});
      }
    }
    if (mode == Mode::kSparse) {
      pending = tr->IsparseAlltoallv(blocks, Datatype::kFloat64, &got, tag,
                                     segment_bytes);
    }
  }
  Count(stats);
}

/// Dense, once the rows are in: the payload Alltoallv, straight into
/// `out` for raw plans (the self block rides along as the schedule's own
/// local copy), into a staging buffer for segment plans.
void Plan::StartPayload() {
  const std::size_t w = std::max<std::size_t>(k, 1);
  std::vector<int> sc, sd;
  std::int64_t total = 0;
  for (int s = 0; s < p; ++s) {
    sc.push_back(static_cast<int>(n[s]));
    sd.push_back(static_cast<int>(at[s] + static_cast<std::int64_t>(k)));
    const auto row = rows.begin() + static_cast<std::ptrdiff_t>(s * w);
    const std::int64_t from =
        std::accumulate(row, row + static_cast<std::ptrdiff_t>(w),
                        std::int64_t{0});
    rc.push_back(static_cast<int>(from));
    rd.push_back(static_cast<int>(total));
    total += from;
  }
  std::vector<double>& into = k == 0 ? out : staging;
  into.resize(static_cast<std::size_t>(total));
  pending = tr->Ialltoallv(words, sc, sd, Datatype::kFloat64, into.data(), rc,
                           rd, tag, segment_bytes);
  counted = true;
}

/// The node-aware engine over the transport's point-to-point Send/Recv,
/// every phase on the plan's tag: its source-specific receives need no
/// termination traffic. Blocking; every group member reaches it, and a
/// janus rank finishes one group's exchange before it starts the other's.
void Plan::Hierarchical() {
  std::vector<topo::BytePiece> pieces;
  for (int d = 0; d < p; ++d) {
    if (n[d] == 0) continue;
    pieces.push_back(topo::BytePiece{
        d, static_cast<const std::byte*>(Message(d)),
        Words(d) * static_cast<std::int64_t>(kWord)});
  }
  const topo::HierWire wire{
      .send =
          [this](int dest, const std::byte* data, int bytes) {
            tr->Send(data, bytes, Datatype::kByte, dest, tag);
          },
      .recv =
          [this](int src, std::byte* buf, int capacity) {
            Status st;
            tr->Recv(buf, capacity, Datatype::kByte, src, tag, &st);
            return static_cast<int>(st.bytes);
          }};
  const topo::HierReceived received = topo::HierExchangeBytes(
      VnodesOfGroup(*tr), me, pieces, segment_bytes, wire, &hs);
  if (k == 0) out.reserve(static_cast<std::size_t>(received.bytes) / kWord);
  for (const std::span<const std::byte> part : received.parts) {
    UnpackRun(part);
  }
}

/// Progresses the delivery; true once every message is unpacked.
bool Plan::Step() {
  if (done) return true;
  if (mode == Mode::kCoalesced) {
    while (!Met()) {
      Status st;
      if (!tr->IprobeAny(tag, &st)) return false;
      std::vector<std::byte> msg(st.bytes);
      tr->Recv(msg.data(), static_cast<int>(st.bytes), Datatype::kByte,
               st.source, tag);
      UnpackRun(msg);
    }
  } else if (mode != Mode::kHierarchical) {
    if (!pending()) return false;
    if (mode == Mode::kAlltoallv && !counted) {
      StartPayload();
      return Step();
    }
    if (mode == Mode::kSparse) {
      std::size_t bytes = 0;
      for (const SparseDelivery& d : got) bytes += d.bytes.size();
      if (k == 0) out.reserve(bytes / kWord);
      for (const SparseDelivery& d : got) UnpackRun(d.bytes);
    } else if (k != 0) {
      for (int s = 0; s < p; ++s) {
        Unpack(reinterpret_cast<const std::byte*>(rows.data() + s * k),
               reinterpret_cast<const std::byte*>(staging.data() + rd[s]),
               static_cast<std::size_t>(rc[s]) * kWord);
      }
    }
  }
  if (!Met()) {
    throw mpisim::Error(
        "jsort::exchange: received element count disagrees with the "
        "layout overlap");
  }
  done = true;
  return true;
}

/// Routes one message's payload by its k header words into the sinks and
/// returns the payload bytes it took; raw payload (k = 0) goes to `out`
/// whole.
std::size_t Plan::Unpack(const std::byte* header, const std::byte* payload,
                         std::size_t bytes) {
  const auto append = [](std::vector<double>& to, const std::byte* from,
                         std::int64_t count) {
    const std::size_t old = to.size();
    to.resize(old + static_cast<std::size_t>(count));
    CopyWords(to.data() + old, from, count);
  };
  if (k == 0) {
    append(out, payload, static_cast<std::int64_t>(bytes / kWord));
    return bytes;
  }
  std::size_t took = 0;
  for (std::size_t j = 0; j < k; ++j) {
    std::int64_t count = 0;
    std::memcpy(&count, header + j * kWord, kWord);
    if (count < 0 ||
        static_cast<std::uint64_t>(count) > (bytes - took) / kWord) {
      throw mpisim::Error(
          "jsort::exchange: exchange message payload disagrees with its "
          "header");
    }
    append(*sinks[j], payload + took, count);
    took += static_cast<std::size_t>(count) * kWord;
    owed[j] -= count;
    if (owed[j] < 0) {
      throw mpisim::Error(
          "jsort::exchange: received more elements than the layout "
          "overlap");
    }
  }
  return took;
}

/// Unpacks a run of whole messages: one from the drain or the sparse
/// collective, a source's messages in a hierarchical part.
void Plan::UnpackRun(std::span<const std::byte> run) {
  const std::size_t head = k * kWord;
  for (std::size_t pos = 0; pos < run.size();) {
    if (run.size() - pos < head) {
      throw mpisim::Error("jsort::exchange: malformed exchange message");
    }
    pos += head + Unpack(run.data() + pos, run.data() + pos + head,
                         run.size() - pos - head);
  }
}

/// Adds this rank's payload traffic to `s`: per non-self destination its
/// elements, one logical message (dense: every peer, empty or not) and
/// its wire messages by the backend's segmentation arithmetic
/// (mpisim::AlltoallvSegmentsOf / SparseChunksOf; the coalesced sends are
/// whole). The hierarchical path adds the wire traffic it measured per
/// level instead. Counts rounds and termination traffic stay out.
void Plan::Count(ExchangeStats* s) const {
  if (s == nullptr) return;
  for (int d = 0; d < p; ++d) {
    if (d == me || (n[d] == 0 && mode != Mode::kAlltoallv)) continue;
    s->messages_sent += 1;
    s->elements_sent += n[d];
    if (mode == Mode::kAlltoallv) {
      s->segments += mpisim::AlltoallvSegmentsOf(n[d], kWord, segment_bytes);
    } else if (mode == Mode::kSparse) {
      s->segments += mpisim::SparseChunksOf(
          Words(d) * static_cast<std::int64_t>(kWord), segment_bytes);
    } else if (mode == Mode::kCoalesced) {
      s->segments += 1;
    }
  }
  s->segments += hs.intra_messages + hs.inter_messages;
  s->intra_messages += hs.intra_messages;
  s->intra_bytes += hs.intra_bytes;
  s->inter_messages += hs.inter_messages;
  s->inter_bytes += hs.inter_bytes;
}

/// Delivers a blocking raw exchange and returns what it received.
std::vector<double> Run(Plan& plan, Mode mode, ExchangeStats* stats,
                        const char* what) {
  plan.Start(mode, stats);
  mpisim::WaitUntil([&] { return plan.Step(); }, what);
  return std::move(plan.out);
}

}  // namespace

std::int64_t ExscanCount(Transport& tr, std::int64_t mine, int tag) {
  std::int64_t incl = 0;
  mpisim::WaitUntil(
      tr.Iscan(&mine, &incl, 1, Datatype::kInt64, ReduceOp::kSum, tag),
      "ExscanCount");
  return incl - mine;
}

std::vector<double> ExchangeBuckets(Transport& tr,
                                    std::span<const double> elements,
                                    std::span<const std::int64_t> offsets,
                                    int tag, ExchangeStats* stats,
                                    std::int64_t segment_bytes, Mode mode) {
  const int p = tr.Size();
  if (static_cast<int>(offsets.size()) != p + 1) {
    throw mpisim::UsageError(
        "jsort::exchange::ExchangeBuckets: offsets must have Size()+1 "
        "entries");
  }
  // The buckets already are the raw messages, dest-ordered: the plan views
  // them in place, the self bucket included.
  Plan plan(tr, tag, segment_bytes);
  plan.words = elements.data();
  for (int d = 0; d < p; ++d) {
    plan.at.push_back(offsets[d]);
    plan.n.push_back(offsets[d + 1] - offsets[d]);
  }
  return Run(plan, Resolve(mode, tr, false, p, 0, segment_bytes), stats,
             "ExchangeBuckets");
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
  Plan plan(*tr, tag, segment_bytes);
  plan.n.assign(static_cast<std::size_t>(p), 0);
  for (const Outgoing& o : out) {
    if (o.dest < 0 || o.dest >= p) {
      throw mpisim::UsageError(
          "jsort::exchange::ExchangeGroupwise: destination out of range");
    }
    if (o.count < 0) {
      throw mpisim::UsageError(
          "jsort::exchange::ExchangeGroupwise: negative count");
    }
    plan.n[o.dest] += o.count;
  }
  // Entries to one destination coalesce, in entry order, into its message.
  std::int64_t total = 0;
  for (int d = 0; d < p; ++d) {
    plan.at.push_back(total);
    total += plan.n[d];
  }
  plan.owned.resize(static_cast<std::size_t>(total));
  std::vector<std::int64_t> cursor = plan.at;
  for (const Outgoing& o : out) {
    CopyWords(plan.owned.data() + cursor[o.dest], o.data, o.count);
    cursor[o.dest] += o.count;
  }
  plan.words = plan.owned.data();
  const auto fanout = static_cast<std::int64_t>(out.size());
  return Run(plan, Resolve(mode, *tr, false, fanout, 0, segment_bytes),
             stats, "ExchangeGroupwise");
}

Poll StartSegmentExchange(const std::shared_ptr<Transport>& tr,
                          const CapacityLayout& layout,
                          std::vector<Segment> segments, int tag, Mode mode,
                          ExchangeStats* stats,
                          std::int64_t segment_bytes) {
  if (tr == nullptr) {
    throw mpisim::UsageError("jsort::exchange: null transport");
  }
  const std::size_t k = segments.size();
  auto plan = std::make_shared<Plan>(*tr, tag, segment_bytes, k);
  const int p = plan->p;
  const int me = plan->me;

  // Interval computation -> per-destination chunks. Self chunks bypass the
  // transport and land in their sinks right away.
  std::vector<std::int64_t> header(static_cast<std::size_t>(p) * k, 0);
  std::vector<std::vector<Chunk>> chunks(k);
  for (std::size_t j = 0; j < k; ++j) {
    const Segment& seg = segments[j];
    if (seg.sink == nullptr) {
      throw mpisim::UsageError("jsort::exchange: segment without sink");
    }
    plan->sinks.push_back(seg.sink);
    plan->owed.push_back(seg.expect);
    if (seg.count == 0) continue;
    chunks[j] =
        AssignChunks(layout, seg.slot_begin, seg.slot_begin + seg.count);
    const double* read = seg.data;
    for (const Chunk& c : chunks[j]) {
      if (c.target == me) {
        seg.sink->insert(seg.sink->end(), read, read + c.count);
        plan->owed[j] -= c.count;
      } else {
        header[static_cast<std::size_t>(c.target) * k + j] += c.count;
      }
      read += c.count;
    }
  }

  // One message per destination: its header row, then its chunks in
  // segment order. The data is copied out here, so callers may free it.
  std::int64_t total = 0;
  for (int d = 0; d < p; ++d) {
    const auto row = header.begin() + static_cast<std::ptrdiff_t>(d * k);
    plan->at.push_back(total);
    plan->n.push_back(std::accumulate(
        row, row + static_cast<std::ptrdiff_t>(k), std::int64_t{0}));
    total += plan->Words(d);
  }
  plan->owned.resize(static_cast<std::size_t>(total));
  std::vector<std::int64_t> cursor;
  for (int d = 0; d < p; ++d) {
    CopyWords(plan->owned.data() + plan->at[d], header.data() + d * k,
              static_cast<std::int64_t>(k));
    cursor.push_back(plan->at[d] + static_cast<std::int64_t>(k));
  }
  for (std::size_t j = 0; j < k; ++j) {
    const double* read = segments[j].data;
    for (const Chunk& c : chunks[j]) {
      if (c.target != me) {
        CopyWords(plan->owned.data() + cursor[c.target], read, c.count);
        cursor[c.target] += c.count;
      }
      read += c.count;
    }
  }
  plan->words = plan->owned.data();

  std::int64_t max_cap = std::max(layout.cap_first, layout.cap_last);
  if (p > 2) max_cap = std::max(max_cap, layout.quota);
  const std::int64_t bound = (static_cast<std::int64_t>(k) + max_cap) *
                             static_cast<std::int64_t>(kWord);
  plan->Start(Resolve(mode, *tr, true, 0, bound, segment_bytes), stats);
  return [tr, plan] { return plan->Step(); };
}

}  // namespace exchange
}  // namespace jsort
