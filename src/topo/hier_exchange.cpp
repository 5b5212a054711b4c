#include "topo/hier_exchange.hpp"

#include <cstring>
#include <limits>
#include <string>

#include "mpisim/error.hpp"

namespace topo {
namespace {

using Bytes = std::span<const std::byte>;

constexpr std::int64_t kWord = sizeof(std::int64_t);

/// One outgoing sectioned message under construction: the section sizes
/// and the payload views that fill them, in order (a section may gather
/// several views -- the phase-B merge).
struct Outgoing {
  std::vector<std::int64_t> lens;
  std::vector<Bytes> views;

  void Section() { lens.push_back(0); }
  void Add(Bytes b) {
    lens.back() += static_cast<std::int64_t>(b.size());
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

RankBuffers& BuffersOfThisRank() {
  thread_local RankBuffers buffers;
  return buffers;
}

/// One rank's state of one exchange.
class Engine {
 public:
  Engine(const VnodeMap& vn, int me, std::span<const BytePiece> pieces,
         std::int64_t segment_bytes, const HierWire& wire,
         HierLevelStats* stats)
      : vn_(vn), me_(me), m_(vn.Count()), v_(vn.vnode_of[me]),
        f_(vn.first[v_]), s_(vn.size[v_]), i_(me - f_),
        segment_bytes_(segment_bytes), wire_(wire), stats_(stats),
        first_cap_(segment_bytes > 0
                       ? std::clamp(segment_bytes, kWord, kFirstFrameBytes)
                       : kFirstFrameBytes),
        buffers_(BuffersOfThisRank()),
        mine_(vn.vnode_of.size()) {
    if (buffers_.frame_bytes < first_cap_) {
      buffers_.frame = std::make_unique_for_overwrite<std::byte[]>(
          static_cast<std::size_t>(first_cap_));
      buffers_.frame_bytes = first_cap_;
    }
    const int p = static_cast<int>(vn.vnode_of.size());
    for (const BytePiece& piece : pieces) {
      if (piece.dest < 0 || piece.dest >= p) {
        throw mpisim::UsageError("hier exchange: piece destination out of "
                                 "range");
      }
      if (piece.bytes > 0) {
        mine_[static_cast<std::size_t>(piece.dest)] =
            Bytes(piece.data, static_cast<std::size_t>(piece.bytes));
      }
    }
  }

  HierReceived Run() {
    PhaseA();
    PhaseB();
    PhaseC();
    return Assemble();
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

  /// My own piece for group rank `dest` (empty when none).
  Bytes Mine(int dest) const { return mine_[static_cast<std::size_t>(dest)]; }

  void PhaseA() {
    for (int t = 1; t < s_; ++t) {
      const int q = Rotate(t);
      Outgoing msg;
      msg.Section();
      msg.Add(Mine(q));
      for (int w : TargetsOf(q - f_)) {
        for (int d = vn_.first[w]; d < vn_.first[w] + vn_.size[w]; ++d) {
          msg.Section();
          msg.Add(Mine(d));
        }
      }
      Send(q, msg, /*inter=*/false);
    }
    targets_ = TargetsOf(i_);
    std::size_t relay_sections = 0;
    for (int w : targets_) {
      relay_sections += static_cast<std::size_t>(vn_.size[w]);
    }
    from_member_.resize(static_cast<std::size_t>(s_));
    for (int t = 1; t < s_; ++t) {
      const int y = Rotate(-t);
      from_member_[static_cast<std::size_t>(y - f_)] =
          Recv(y, 1 + relay_sections);
    }
  }

  void PhaseB() {
    // Bundle for target w: per destination of w, the pieces of every
    // member of this vnode, source-ascending (a member's pieces for my
    // targets follow its direct section, target by target).
    std::size_t base = 1;
    for (int w : targets_) {
      Outgoing msg;
      for (int d = vn_.first[w]; d < vn_.first[w] + vn_.size[w]; ++d) {
        msg.Section();
        const std::size_t at = base + static_cast<std::size_t>(
                                          d - vn_.first[w]);
        for (int k = 0; k < s_; ++k) {
          msg.Add(k == i_ ? Mine(d)
                          : from_member_[static_cast<std::size_t>(k)][at]);
        }
      }
      base += static_cast<std::size_t>(vn_.size[w]);
      Send(vn_.GatewayOf(w, v_), msg, /*inter=*/true);
    }
    for (int w : targets_) {
      from_remote_.push_back(
          Recv(vn_.GatewayOf(w, v_), static_cast<std::size_t>(s_)));
    }
  }

  void PhaseC() {
    if (!targets_.empty()) {
      for (int t = 1; t < s_; ++t) {
        const int q = Rotate(t);
        Outgoing msg;
        for (const std::vector<Bytes>& bundle : from_remote_) {
          msg.Section();
          msg.Add(bundle[static_cast<std::size_t>(q - f_)]);
        }
        Send(q, msg, /*inter=*/false);
      }
    }
    from_gateway_.resize(static_cast<std::size_t>(s_));
    for (int t = 1; t < s_; ++t) {
      const int g = Rotate(-t);
      if (g - f_ >= vn_.GatewayCount(v_)) continue;
      from_gateway_[static_cast<std::size_t>(g - f_)] =
          Recv(g, TargetsOf(g - f_).size());
    }
  }

  /// Source-rank order: vnode by vnode, the own vnode's direct blocks in
  /// member order, every remote vnode's one merged section for me from
  /// whichever gateway carried it.
  HierReceived Assemble() {
    auto take = [&](Bytes b) {
      if (b.empty()) return;
      out_.parts.push_back(b);
      out_.bytes += static_cast<std::int64_t>(b.size());
    };
    const auto me = static_cast<std::size_t>(i_);
    for (int w = 0; w < m_; ++w) {
      if (w == v_) {
        for (int k = 0; k < s_; ++k) {
          take(k == i_ ? Mine(me_)
                       : from_member_[static_cast<std::size_t>(k)][0]);
        }
        continue;
      }
      const int d = ((w - v_) % m_ + m_) % m_;
      const auto idx = static_cast<std::size_t>((d - 1) / s_);
      const int g = vn_.GatewayOf(v_, w);
      take(g == me_ ? from_remote_[idx][me]
                    : from_gateway_[static_cast<std::size_t>(g - f_)][idx]);
    }
    return std::move(out_);
  }

  /// Serializes `msg` into the rank's send buffer and injects it as a
  /// first frame of at most first_cap_ bytes and, when longer, the rest
  /// in frames of at most segment_bytes (as one message when
  /// unsegmented).
  void Send(int dest, const Outgoing& msg, bool inter) {
    std::int64_t total =
        kWord * (1 + static_cast<std::int64_t>(msg.lens.size()));
    for (std::int64_t len : msg.lens) total += len;
    std::vector<std::byte>& buf = buffers_.send;
    buf.resize(static_cast<std::size_t>(total));
    std::byte* at = buf.data();
    std::memcpy(at, &total, kWord);
    at += kWord;
    for (std::int64_t len : msg.lens) {
      std::memcpy(at, &len, kWord);
      at += kWord;
    }
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
      wire_.send(dest, buf.data() + off, static_cast<int>(frame));
      off += frame;
      if (stats_ != nullptr) {
        (inter ? stats_->inter_messages : stats_->intra_messages) += 1;
        (inter ? stats_->inter_bytes : stats_->intra_bytes) += frame;
      }
    }
  }

  /// Bound of the wire frame that starts at byte `off` of a message.
  std::int64_t FrameCap(std::int64_t off) const {
    if (off == 0) return first_cap_;
    return segment_bytes_ > 0 ? segment_bytes_
                              : std::numeric_limits<std::int64_t>::max();
  }

  /// Receives the next sectioned message from `src` with `nsec`
  /// sections: the first frame into the rank's frame buffer, the rest
  /// straight into the message's own exact-size buffer. Returns views of
  /// the sections.
  std::vector<Bytes> Recv(int src, std::size_t nsec) {
    std::byte* frame = buffers_.frame.get();
    const std::int64_t first =
        wire_.recv(src, frame, static_cast<int>(first_cap_));
    std::int64_t total = -1;
    if (first >= kWord) std::memcpy(&total, frame, kWord);
    const auto header = kWord * (1 + static_cast<std::int64_t>(nsec));
    if (total < header || total < first ||
        (first < total && first < first_cap_)) {
      throw Malformed(src);
    }
    auto buf = std::make_unique_for_overwrite<std::byte[]>(
        static_cast<std::size_t>(total));
    std::memcpy(buf.get(), frame, static_cast<std::size_t>(first));
    for (std::int64_t off = first; off < total;) {
      const std::int64_t want = std::min(FrameCap(off), total - off);
      if (wire_.recv(src, buf.get() + off, static_cast<int>(want)) != want) {
        throw Malformed(src);
      }
      off += want;
    }
    std::vector<Bytes> sections(nsec);
    const std::byte* table = buf.get() + kWord;
    std::int64_t at = header;
    for (std::size_t k = 0; k < nsec; ++k) {
      std::int64_t len = 0;
      std::memcpy(&len, table + k * kWord, kWord);
      if (len < 0 || len > total - at) throw Malformed(src);
      sections[k] = Bytes(buf.get() + at, static_cast<std::size_t>(len));
      at += len;
    }
    if (at != total) throw Malformed(src);
    out_.storage.push_back(std::move(buf));
    return sections;
  }

  static mpisim::UsageError Malformed(int src) {
    return mpisim::UsageError("hier exchange: malformed message from rank " +
                              std::to_string(src));
  }

  const VnodeMap& vn_;
  const int me_, m_, v_, f_, s_, i_;
  const std::int64_t segment_bytes_;
  const HierWire& wire_;
  HierLevelStats* stats_;
  const std::int64_t first_cap_;
  RankBuffers& buffers_;
  std::vector<Bytes> mine_;    // my piece per destination
  std::vector<int> targets_;   // vnodes I am the gateway for
  std::vector<std::vector<Bytes>> from_member_;   // phase A, by member
  std::vector<std::vector<Bytes>> from_remote_;   // phase B, by target
  std::vector<std::vector<Bytes>> from_gateway_;  // phase C, by member
  HierReceived out_;
};

}  // namespace

void HierReceived::CopyTo(std::byte* out) const {
  for (Bytes part : parts) {
    if (part.empty()) continue;
    std::memcpy(out, part.data(), part.size());
    out += part.size();
  }
}

HierReceived HierExchangeBytes(const VnodeMap& vn, int my_rank,
                               std::span<const BytePiece> pieces,
                               std::int64_t segment_bytes,
                               const HierWire& wire, HierLevelStats* stats) {
  return Engine(vn, my_rank, pieces, segment_bytes, wire, stats).Run();
}

}  // namespace topo
