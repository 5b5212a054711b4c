#include "sort/exchange.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

namespace jsort {
namespace exchange {

topo::VnodeMap VnodesOfGroup(const Transport& tr) {
  const mpisim::Runtime& rt = *mpisim::Ctx().runtime;
  return topo::VnodesOf(tr.Size(),
                        [&](int r) { return rt.NodeOf(tr.WorldRankOf(r)); });
}

namespace {

/// Bytes of one payload element, of one header word, and of one length
/// word of a hierarchical message.
constexpr std::int64_t kWord = sizeof(double);
static_assert(sizeof(std::int64_t) == kWord);

/// Copies `n` 8-byte words: int64 header words and double payload share
/// one message buffer.
void CopyWords(void* to, const void* from, std::int64_t n) {
  if (n > 0) std::memcpy(to, from, static_cast<std::size_t>(n) * kWord);
}

/// Appends `n` payload words at `from` to `to`.
void AppendWords(std::vector<double>& to, const std::byte* from,
                 std::int64_t n) {
  const std::size_t old = to.size();
  to.resize(old + static_cast<std::size_t>(n));
  CopyWords(to.data() + old, from, n);
}

/// Header word `j` of the message header at `header`.
std::int64_t HeaderWord(const std::byte* header, std::size_t j) {
  std::int64_t word = 0;
  std::memcpy(&word, header + j * kWord, kWord);
  return word;
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
  // Coalesced: the messages drained so far, with their sources.
  std::vector<std::pair<int, std::vector<std::byte>>> held;

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
  bool Step();
  std::size_t Pay(const std::byte* header, std::size_t bytes);
  void Route(const std::byte* header, const std::byte* payload);
  std::size_t Unpack(const std::byte* header, const std::byte* payload,
                     std::size_t bytes);
  void UnpackRun(std::span<const std::byte> run);
  void Count(ExchangeStats* s) const;
};

// The hierarchical delivery: a node-aware engine that routes a plan's
// messages in three point-to-point phases so that every inter-node byte
// travels exactly once, inside one bundle per ordered pair of nodes. A
// flat exchange ships one message per non-empty (source, destination)
// pair; with p ranks spread over m nodes, almost all of them cross the
// network. The bundles are spread over the ranks of each node: on vnode u
// (see VnodeMap in topo/topology.hpp; m vnodes, s_u ranks on u) the
// *gateway* for remote vnode w is member
//   ((w - u) mod m - 1) mod s_u,
// so with m - 1 <= s_u every rank carries at most one bundle each way
// (the node-aware exchange of Bienz, Gropp and Olson, JPDC 2019).
//
//   A (intra): every rank sends exactly one message to every other
//     member of its vnode: the direct payload for that member (possibly
//     none) and this rank's messages for every destination on the remote
//     vnodes that member is the gateway for. Every rank receives exactly
//     s - 1 messages.
//   B (inter): the gateway of u for w merges u's messages for w PER
//     DESTINATION -- all of u's sources for one destination concatenate,
//     source-ascending, into ONE section -- and trades exactly one
//     bundle, possibly empty, with w's gateway for u.
//   C (intra): each gateway sends every other member of its vnode
//     exactly one message: that member's bytes from each of the
//     gateway's remote vnodes.
//
// Every wire message is a *sectioned message*
//   [int64 total bytes][int64 section bytes x n][section payloads]
// whose section count n both ends derive from the vnode map, so source
// ranks are never transmitted: vnodes are contiguous rank runs and each
// merged section is internally source-ascending, so the receiver
// reconstructs the global source order from structure alone. Every rank
// hands Plan::UnpackRun exactly the messages a flat exchange would have
// delivered, part by part in source-rank order:
//   remote lower vnodes ++ own-vnode direct blocks ++ remote upper.
//
// Termination needs no traffic. Every receive names its source and runs
// in a fixed rotation order, and every (source, destination) pair sends a
// fixed number of messages per exchange (the frames of one message are
// announced by its total), so FIFO matching keeps back-to-back exchanges
// on one tag apart -- no wildcard probe, no barrier, no sparse
// collective. A wire message never exceeds segment_bytes (at least the
// 8-byte total). The first frame of a message is also bounded by
// kFirstFrameBytes; with segment_bytes == 0 only that frame is bounded and
// the rest of a longer message follows as one message. The receiver takes
// every first frame into one reusable, never zero-filled buffer, receives
// the rest in place into one buffer of the message's exact size, and
// unpacks the sections as views -- no copy per section.
//
// Cost and scaling limit: a rank pays 2(s - 1) intra-node startups in
// phase A, and in phase C s - 1 sends if it is a gateway plus one receive
// per other gateway of its vnode; a gateway pays 2 ceil((m - 1) / s)
// inter-node startups in phase B, where one leader per node would
// serialize 2(m - 1). Known expectations save the two group-wide
// termination barriers every sparse-collective phase would pay. By the
// same alpha-beta arithmetic, barrier termination of phase B would only
// win at about a hundred nodes or more with sparse traffic, when a
// gateway's ceil((m - 1) / s) bundles are mostly empty.

using Bytes = std::span<const std::byte>;

/// One outgoing sectioned message under construction: its length words
/// (the total, then one per section) and the views that fill the
/// sections, in order (a section may gather several views -- the phase-B
/// merge).
struct Sectioned {
  std::vector<std::int64_t> lens = {kWord};  // the total counts its own word
  std::vector<Bytes> views;

  /// Opens the next section, `b` its first view.
  void Section(Bytes b = {}) {
    lens.push_back(0);
    lens[0] += kWord;
    Add(b);
  }
  void Add(Bytes b) {
    lens.back() += static_cast<std::int64_t>(b.size());
    lens[0] += static_cast<std::int64_t>(b.size());
    if (!b.empty()) views.push_back(b);
  }
};

/// Buffers one rank reuses across exchanges. Ranks are threads, so
/// thread-local storage is one set per rank. Allocating the frame buffer
/// once instead of per exchange keeps it out of every exchange's heap
/// traffic; a fresh 64 KiB buffer per call measurably raises the peak RSS
/// of a 64-rank run.
struct RankBuffers {
  std::unique_ptr<std::byte[]> frame;  // first frames; never zero-filled
  std::int64_t frame_bytes = 0;
  std::vector<std::byte> send;  // serialized outgoing messages
};

/// This rank's buffers, the frame buffer at least `frame_bytes` long.
RankBuffers& BuffersOfThisRank(std::int64_t frame_bytes) {
  thread_local RankBuffers buffers;
  if (buffers.frame_bytes < frame_bytes) {
    buffers.frame = std::make_unique_for_overwrite<std::byte[]>(
        static_cast<std::size_t>(frame_bytes));
    buffers.frame_bytes = frame_bytes;
  }
  return buffers;
}

/// One rank's part of one hierarchical delivery of a plan, over the
/// plan's transport and tag. Blocking; every group member reaches it, and
/// a janus rank finishes one group's exchange before it starts the
/// other's. Every wire frame counts into `stats`, by level.
class HierEngine {
 public:
  HierEngine(Plan& plan, ExchangeStats* stats) : plan_(plan), stats_(stats) {}

  void Run() {
    PhaseA();
    PhaseB();
    PhaseC();
    Deliver();
  }

 private:
  /// Remote vnodes member `j` of this vnode is the gateway for, in
  /// distance order: d = j + 1, j + 1 + s, ... <= m - 1.
  std::vector<int> TargetsOf(int j) const {
    std::vector<int> t;
    for (int d = j + 1; d < m_; d += s_) t.push_back((v_ + d) % m_);
    return t;
  }

  /// Group rank of the member `t` steps after (or before, t < 0) this
  /// rank in the vnode's rotation.
  int Rotate(int t) const { return f_ + ((i_ + t) % s_ + s_) % s_; }

  /// The plan's message for group rank `dest`; empty when it carries no
  /// payload, since such a message never travels.
  Bytes Mine(int dest) const {
    if (plan_.n[dest] == 0) return {};
    return Bytes(static_cast<const std::byte*>(plan_.Message(dest)),
                 static_cast<std::size_t>(plan_.Words(dest) * kWord));
  }

  void PhaseA() {
    for (int t = 1; t < s_; ++t) {
      const int q = Rotate(t);
      Sectioned msg;
      msg.Section(Mine(q));
      for (int w : TargetsOf(q - f_)) {
        for (int d = vn_.first[w]; d < vn_.first[w] + vn_.size[w]; ++d) {
          msg.Section(Mine(d));
        }
      }
      Send(q, msg, /*inter=*/false);
    }
    int relayed = 0;
    for (int w : targets_) relayed += vn_.size[w];
    from_member_.resize(s_);
    for (int t = 1; t < s_; ++t) {
      const int y = Rotate(-t);
      from_member_[y - f_] = Recv(y, 1 + relayed);
    }
  }

  void PhaseB() {
    // Bundle for target w: per destination of w, the messages of every
    // member of this vnode, source-ascending (a member's messages for my
    // targets follow its direct section, target by target).
    int base = 1;
    for (int w : targets_) {
      Sectioned msg;
      for (int j = 0; j < vn_.size[w]; ++j) {
        msg.Section();
        for (int k = 0; k < s_; ++k) {
          msg.Add(k == i_ ? Mine(vn_.first[w] + j)
                          : from_member_[k][base + j]);
        }
      }
      base += vn_.size[w];
      Send(vn_.GatewayOf(w, v_), msg, /*inter=*/true);
    }
    for (int w : targets_) {
      from_remote_.push_back(Recv(vn_.GatewayOf(w, v_), s_));
    }
  }

  void PhaseC() {
    // Only gateways hold remote bundles to scatter.
    for (int t = 1; t < s_ && !targets_.empty(); ++t) {
      const int q = Rotate(t);
      Sectioned msg;
      for (const std::vector<Bytes>& bundle : from_remote_) {
        msg.Section(bundle[q - f_]);
      }
      Send(q, msg, /*inter=*/false);
    }
    from_gateway_.resize(s_);
    for (int t = 1; t < s_; ++t) {
      const int g = Rotate(-t);
      if (g - f_ >= vn_.GatewayCount(v_)) continue;
      from_gateway_[g - f_] =
          Recv(g, static_cast<int>(TargetsOf(g - f_).size()));
    }
  }

  /// Hands the plan its parts in source-rank order: vnode by vnode, the
  /// own vnode's direct blocks in member order, every remote vnode's one
  /// merged section for me from whichever gateway carried it.
  void Deliver() {
    std::vector<Bytes> parts;
    for (int w = 0; w < m_; ++w) {
      if (w == v_) {
        for (int k = 0; k < s_; ++k) {
          parts.push_back(k == i_ ? Mine(me_) : from_member_[k][0]);
        }
        continue;
      }
      const int idx = (((w - v_) % m_ + m_) % m_ - 1) / s_;
      const int g = vn_.GatewayOf(v_, w);
      parts.push_back(g == me_ ? from_remote_[idx][i_]
                               : from_gateway_[g - f_][idx]);
    }
    std::size_t bytes = 0;
    for (Bytes part : parts) bytes += part.size();
    if (plan_.k == 0) plan_.out.reserve(bytes / kWord);
    for (Bytes part : parts) plan_.UnpackRun(part);
  }

  /// Serializes `msg` into the rank's send buffer and injects it as a
  /// first frame of at most first_cap_ bytes and, when longer, the rest
  /// in frames of at most segment_bytes (as one message when
  /// unsegmented).
  void Send(int dest, const Sectioned& msg, bool inter) {
    const std::int64_t total = msg.lens[0];
    std::vector<std::byte>& buf = buffers_.send;
    buf.resize(static_cast<std::size_t>(total));
    std::memcpy(buf.data(), msg.lens.data(), msg.lens.size() * kWord);
    std::byte* at = buf.data() + msg.lens.size() * kWord;
    for (Bytes b : msg.views) {
      std::memcpy(at, b.data(), b.size());
      at += b.size();
    }
    for (std::int64_t off = 0; off < total;) {
      const std::int64_t frame = std::min(FrameCap(off), total - off);
      if (frame > std::numeric_limits<int>::max()) {
        throw mpisim::UsageError(
            "hier exchange: message tail exceeds 2^31 bytes");
      }
      plan_.tr->Send(buf.data() + off, static_cast<int>(frame),
                     Datatype::kByte, dest, plan_.tag);
      off += frame;
      if (stats_ != nullptr) {
        (inter ? stats_->inter_messages : stats_->intra_messages) += 1;
        (inter ? stats_->inter_bytes : stats_->intra_bytes) += frame;
        stats_->segments += 1;
      }
    }
  }

  /// Bound of the wire frame that starts at byte `off` of a message.
  std::int64_t FrameCap(std::int64_t off) const {
    if (off == 0) return first_cap_;
    return plan_.segment_bytes > 0
               ? plan_.segment_bytes
               : std::numeric_limits<std::int64_t>::max();
  }

  /// Receives the next wire frame from `src` (at most `cap` bytes) and
  /// returns its size.
  std::int64_t RecvFrame(int src, std::byte* buf, std::int64_t cap) {
    Status st;
    plan_.tr->Recv(buf, static_cast<int>(cap), Datatype::kByte, src,
                   plan_.tag, &st);
    return static_cast<std::int64_t>(st.bytes);
  }

  /// Receives the next sectioned message from `src` with `nsec`
  /// sections: the first frame into the rank's frame buffer, the rest
  /// straight into the message's own exact-size buffer. Returns views of
  /// the sections.
  std::vector<Bytes> Recv(int src, int nsec) {
    const auto malformed = [src] {
      return mpisim::UsageError(
          "hier exchange: malformed message from rank " + std::to_string(src));
    };
    std::byte* frame = buffers_.frame.get();
    const std::int64_t first = RecvFrame(src, frame, first_cap_);
    std::int64_t total = -1;
    if (first >= kWord) std::memcpy(&total, frame, kWord);
    std::int64_t at = kWord * (1 + nsec);  // the payload after the lengths
    if (total < at || total < first ||
        (first < total && first < first_cap_)) {
      throw malformed();
    }
    auto buf = std::make_unique_for_overwrite<std::byte[]>(
        static_cast<std::size_t>(total));
    std::memcpy(buf.get(), frame, static_cast<std::size_t>(first));
    for (std::int64_t off = first; off < total;) {
      const std::int64_t want = std::min(FrameCap(off), total - off);
      if (RecvFrame(src, buf.get() + off, want) != want) throw malformed();
      off += want;
    }
    std::vector<Bytes> sections(nsec);
    for (int k = 0; k < nsec; ++k) {
      std::int64_t len = 0;
      std::memcpy(&len, buf.get() + kWord * (1 + k), kWord);
      if (len < 0 || len > total - at) throw malformed();
      sections[k] = Bytes(buf.get() + at, static_cast<std::size_t>(len));
      at += len;
    }
    if (at != total) throw malformed();
    storage_.push_back(std::move(buf));
    return sections;
  }

  Plan& plan_;
  ExchangeStats* stats_;
  const topo::VnodeMap vn_ = VnodesOfGroup(*plan_.tr);
  const int me_ = plan_.me, m_ = vn_.Count(), v_ = vn_.vnode_of[me_];
  const int f_ = vn_.first[v_], s_ = vn_.size[v_], i_ = me_ - f_;
  const std::int64_t first_cap_ =
      plan_.segment_bytes > 0
          ? std::clamp(plan_.segment_bytes, kWord, kFirstFrameBytes)
          : kFirstFrameBytes;
  RankBuffers& buffers_ = BuffersOfThisRank(first_cap_);
  const std::vector<int> targets_ = TargetsOf(i_);  // vnodes I relay to
  std::vector<std::vector<Bytes>> from_member_;   // phase A, by member
  std::vector<std::vector<Bytes>> from_remote_;   // phase B, by target
  std::vector<std::vector<Bytes>> from_gateway_;  // phase C, by member
  std::vector<std::unique_ptr<std::byte[]>> storage_;  // received messages
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
    HierEngine(*this, stats).Run();
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

/// Progresses the delivery; true once every message is unpacked.
bool Plan::Step() {
  if (done) return true;
  if (mode == Mode::kCoalesced) {
    // Each arrival pays its header off the expectations; the messages
    // unpack once those are met, in source order, so what lands in a sink
    // does not depend on the order in which the messages arrived.
    const std::size_t head = k * kWord;
    while (!Met()) {
      Status st;
      if (!tr->IprobeAny(tag, &st)) return false;
      std::vector<std::byte> msg(st.bytes);
      tr->Recv(msg.data(), static_cast<int>(st.bytes), Datatype::kByte,
               st.source, tag);
      if (msg.size() < head ||
          Pay(msg.data(), msg.size() - head) != msg.size() - head) {
        throw mpisim::Error("jsort::exchange: malformed exchange message");
      }
      held.emplace_back(st.source, std::move(msg));
    }
    std::sort(held.begin(), held.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (const auto& [source, msg] : held) {
      Route(msg.data(), msg.data() + head);
    }
    held.clear();
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

/// Checks one message's k header words against the `bytes` of payload
/// that follow them and pays them off the sinks' expectations; returns
/// the payload bytes they claim.
std::size_t Plan::Pay(const std::byte* header, std::size_t bytes) {
  std::size_t took = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::int64_t count = HeaderWord(header, j);
    if (count < 0 ||
        static_cast<std::uint64_t>(count) > (bytes - took) / kWord) {
      throw mpisim::Error(
          "jsort::exchange: exchange message payload disagrees with its "
          "header");
    }
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

/// Appends a paid message's payload to the sinks its k header words name.
void Plan::Route(const std::byte* header, const std::byte* payload) {
  for (std::size_t j = 0; j < k; ++j) {
    const std::int64_t count = HeaderWord(header, j);
    AppendWords(*sinks[j], payload, count);
    payload += static_cast<std::size_t>(count) * kWord;
  }
}

/// Pays and routes one message and returns the payload bytes it took; raw
/// payload (k = 0) goes to `out` whole.
std::size_t Plan::Unpack(const std::byte* header, const std::byte* payload,
                         std::size_t bytes) {
  if (k == 0) {
    AppendWords(out, payload, static_cast<std::int64_t>(bytes / kWord));
    return bytes;
  }
  const std::size_t took = Pay(header, bytes);
  Route(header, payload);
  return took;
}

/// Unpacks a run of whole messages: one from the sparse collective, a
/// source's messages in a hierarchical part.
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
/// whole). The hierarchical engine counts its wire frames, by level, as it
/// sends them. Counts rounds and termination traffic stay out.
void Plan::Count(ExchangeStats* s) const {
  if (s == nullptr) return;
  for (int d = 0; d < p; ++d) {
    if (d == me || (n[d] == 0 && mode != Mode::kAlltoallv)) continue;
    s->messages_sent += 1;
    s->elements_sent += n[d];
    if (mode == Mode::kAlltoallv) {
      s->segments += mpisim::AlltoallvSegmentsOf(n[d], kWord, segment_bytes);
    } else if (mode == Mode::kSparse) {
      s->segments += mpisim::SparseChunksOf(Words(d) * kWord, segment_bytes);
    } else if (mode == Mode::kCoalesced) {
      s->segments += 1;
    }
  }
}

}  // namespace

std::vector<double> ExchangeBuckets(Transport& tr,
                                    std::span<const double> elements,
                                    std::span<const std::int64_t> offsets,
                                    std::span<const int> dests, int tag,
                                    ExchangeStats* stats,
                                    std::int64_t segment_bytes, Mode mode) {
  const int p = tr.Size();
  const auto usage = [](const char* what) {
    return mpisim::UsageError(
        std::string("jsort::exchange::ExchangeBuckets: ") + what);
  };
  if (offsets.size() != dests.size() + 1 || offsets.front() < 0 ||
      offsets.back() > static_cast<std::int64_t>(elements.size())) {
    throw usage("offsets must bound one bucket of elements per dest");
  }
  // A destination's buckets are adjacent, so the buckets already are the
  // raw messages, dest-ordered: the plan views them in place, the self
  // message included.
  Plan plan(tr, tag, segment_bytes);
  plan.words = elements.data();
  plan.n.assign(static_cast<std::size_t>(p), 0);
  for (std::size_t b = 0; b < dests.size(); ++b) {
    const int d = dests[b];
    if (d < 0 || d >= p) throw usage("destination out of range");
    if (b > 0 && d < dests[b - 1]) throw usage("destinations must ascend");
    if (offsets[b + 1] < offsets[b]) throw usage("offsets must not decrease");
    plan.n[d] += offsets[b + 1] - offsets[b];
  }
  for (int d = 0; d < p; ++d) {
    const auto first = std::lower_bound(dests.begin(), dests.end(), d);
    plan.at.push_back(offsets[static_cast<std::size_t>(first - dests.begin())]);
  }
  const auto fanout = static_cast<std::int64_t>(dests.size());
  plan.Start(Resolve(mode, tr, false, fanout, 0, segment_bytes), stats);
  mpisim::WaitUntil([&] { return plan.Step(); }, "ExchangeBuckets");
  return std::move(plan.out);
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
  const std::int64_t bound = (static_cast<std::int64_t>(k) + max_cap) * kWord;
  plan->Start(Resolve(mode, *tr, true, 0, bound, segment_bytes), stats);
  return [tr, plan] { return plan->Step(); };
}

}  // namespace exchange
}  // namespace jsort
