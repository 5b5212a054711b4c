#include "mpisim/schedule.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "mpisim/error.hpp"
#include "mpisim/p2p.hpp"

namespace mpisim::detail {

namespace {

/// Offset `rel` of the binomial tree over offsets 0..n-1 rooted at 0, in
/// offsets, without the root's order. Its pre-order is offset order, so
/// child i's subtree is the run of offsets from child_offsets[i] on.
Tree BinomialLinks(int rel, int n) {
  Tree t;
  if (rel != 0) t.parent = rel ^ (rel & (-rel));
  const int limit = rel == 0 ? n : (rel & (-rel));
  for (int m = 1; m < limit && rel + m < n; m <<= 1) {
    t.children.push_back(rel + m);
    t.child_extents.push_back(std::min(m, n - rel - m));
    t.child_offsets.push_back(m);
  }
  return t;
}

}  // namespace

Tree BinomialTreeOf(int rank, int p, int root) {
  const auto at = [&](int rel) { return (rel + root) % p; };
  Tree t = BinomialLinks((rank - root + p) % p, p);
  if (t.parent >= 0) {
    t.parent = at(t.parent);
  } else {
    for (int pos = 0; pos < p; ++pos) t.order.push_back(at(pos));
  }
  for (int& c : t.children) c = at(c);
  return t;
}

Tree InOrderBinomialTreeOf(int rank, int p) {
  // The root follows the runs of its odd (left) children.
  int root = 0;
  for (int m = 2; m < p; m <<= 2) root += std::min(m, p - m);
  Tree t;
  int right = root + 1;  // first rank of the next run right of the root
  int left = root;       // one past the last rank of the next left run
  for (int j = 0, m = 1; m < p; ++j, m <<= 1) {
    const int e = std::min(m, p - m);
    const bool on_right = j % 2 == 0;
    // Child j's run is [first, first + e), rooted at `head`.
    const int first = on_right ? right : left - e;
    const int head = on_right ? first : first + e - 1;
    if (on_right) {
      right += e;
    } else {
      left -= e;
    }
    if (rank == root) {
      t.children.push_back(head);
      t.child_extents.push_back(e);
      t.child_offsets.push_back(first);
      continue;
    }
    if (rank < first || rank >= first + e) continue;
    // Inside its run: the binomial tree on offsets from the head, mirrored
    // left of the root.
    const int dir = on_right ? 1 : -1;
    const Tree in = BinomialLinks(dir * (rank - head), e);
    t.parent = in.parent < 0 ? root : head + dir * in.parent;
    const int lo = on_right ? rank : rank - in.Extent() + 1;  // own run
    for (std::size_t i = 0; i < in.children.size(); ++i) {
      const int c = head + dir * in.children[i];
      const int ce = in.child_extents[i];
      t.children.push_back(c);
      t.child_extents.push_back(ce);
      t.child_offsets.push_back((on_right ? c : c - ce + 1) - lo);
    }
    break;
  }
  // By increasing extent: all but the last child have extents 1, 2, 4, ...,
  // so only the last moves, to follow the children of its extent.
  const std::vector<int>& ext = t.child_extents;
  if (ext.size() > 1) {
    const auto at =
        std::upper_bound(ext.begin(), ext.end() - 1, ext.back()) - ext.begin();
    for (std::vector<int>* v :
         {&t.children, &t.child_extents, &t.child_offsets}) {
      std::rotate(v->begin() + at, v->end() - 1, v->end());
    }
  }
  return t;
}

namespace {

std::size_t Bytes(int count, Datatype dt) {
  if (count < 0) throw UsageError("collective: negative count");
  return static_cast<std::size_t>(count) * SizeOf(dt);
}

class ChannelBinding final : public Endpoint {
 public:
  ChannelBinding(Comm comm, Channel ch, std::vector<int> members, int rank)
      : comm_(std::move(comm)), ch_(ch), members_(std::move(members)),
        rank_(members_.empty() ? comm_.Rank() : rank) {}

  int Rank() const override { return rank_; }
  int Size() const override {
    return members_.empty() ? comm_.Size()
                            : static_cast<int>(members_.size());
  }
  void Send(const void* buf, int count, Datatype dt, int dest,
            int tag) const override {
    SendOnChannel(buf, count, dt, Of(dest), tag, comm_, ch_);
  }
  Request Irecv(void* buf, int count, Datatype dt, int src,
                int tag) const override {
    return IrecvOnChannel(buf, count, dt, Of(src), tag, comm_, ch_);
  }
  bool Iprobe(int src, int tag, Status* st) const override {
    return IprobeOnChannel(src == kAnySource ? src : Of(src), tag, comm_, ch_,
                           st);
  }
  void Recv(void* buf, int count, Datatype dt, int src,
            int tag) const override {
    RecvOnChannel(buf, count, dt, Of(src), tag, comm_, ch_);
  }

 private:
  int Of(int r) const {
    return members_.empty() ? r : members_[static_cast<std::size_t>(r)];
  }

  Comm comm_;
  Channel ch_;
  std::vector<int> members_;
  int rank_;
};

class ChainSM final : public RequestImpl {
 public:
  ChainSM(Schedule first, std::function<Schedule()> next)
      : first_(std::move(first)), next_(std::move(next)) {}

 protected:
  bool Test(Status* st) override {
    if (second_ == nullptr) {
      if (!first_->Progress(nullptr)) return false;
      second_ = next_();
    }
    return second_->Progress(st);
  }

 private:
  Schedule first_;
  std::function<Schedule()> next_;
  Schedule second_;
};

/// Fields every schedule shares: its binding and tag, its element type
/// and count, and the receive it waits on.
class SM : public RequestImpl {
 protected:
  SM(EndpointPtr ep, int count, Datatype dt, int tag)
      : ep_(std::move(ep)), count_(count), dt_(dt), tag_(tag),
        bytes_(Bytes(count, dt)) {}

  EndpointPtr ep_;
  int count_;
  Datatype dt_;
  int tag_;
  std::size_t bytes_;  // of count_ elements
  Request pending_;
  bool done_ = false;
};

class BcastSM final : public SM {
 public:
  BcastSM(EndpointPtr ep, Tree tree, void* buf, int count, Datatype dt,
          int tag)
      : SM(std::move(ep), count, dt, tag), tree_(std::move(tree)), buf_(buf) {
    if (tree_.parent < 0) {
      SendToChildren();
    } else {
      pending_ = ep_->Irecv(buf_, count_, dt_, tree_.parent, tag_);
    }
  }

 protected:
  bool Test(Status*) override {
    if (!done_ && pending_.Test()) SendToChildren();
    return done_;
  }

 private:
  void SendToChildren() {
    for (std::size_t i = tree_.children.size(); i-- > 0;) {
      ep_->Send(buf_, count_, dt_, tree_.children[i], tag_);
    }
    done_ = true;
  }

  Tree tree_;
  void* buf_;
};

/// Base of the gathering tree schedules (Reduce, Gather): takes the
/// children's messages one at a time, in list order, then sends up or
/// finishes at the root.
class UpTreeSM : public SM {
 protected:
  UpTreeSM(EndpointPtr ep, Tree tree, int count, Datatype dt, int tag)
      : SM(std::move(ep), count, dt, tag), tree_(std::move(tree)) {}

  /// Posts the receive of child i's message.
  virtual Request PostChild(std::size_t i) = 0;
  /// Local work once child i's message arrived.
  virtual void Absorb() {}
  /// Sends to the parent, or finishes at the root.
  virtual void Finish() = 0;

  void Start() {
    if (!tree_.children.empty()) pending_ = PostChild(0);
  }

  bool Test(Status*) override {
    while (child_ < tree_.children.size()) {
      if (!pending_.Test()) return false;
      Absorb();
      if (++child_ < tree_.children.size()) pending_ = PostChild(child_);
    }
    Finish();
    return true;
  }

  Tree tree_;

 private:
  std::size_t child_ = 0;
};

class ReduceSM final : public UpTreeSM {
 public:
  ReduceSM(EndpointPtr ep, Tree tree, const void* send, void* recv,
           int count, Datatype dt, ReduceOp op, int tag)
      : UpTreeSM(std::move(ep), std::move(tree), count, dt, tag),
        recv_(recv), op_(op), acc_(bytes_), child_buf_(bytes_) {
    if (bytes_ != 0) std::memcpy(acc_.data(), send, bytes_);
    Start();
  }

 private:
  Request PostChild(std::size_t i) override {
    return ep_->Irecv(child_buf_.data(), count_, dt_, tree_.children[i],
                      tag_);
  }
  void Absorb() override {
    ApplyReduce(op_, dt_, child_buf_.data(), acc_.data(), count_);
  }
  void Finish() override {
    if (tree_.parent >= 0) {
      ep_->Send(acc_.data(), count_, dt_, tree_.parent, tag_);
    } else if (recv_ != nullptr && bytes_ != 0) {
      std::memcpy(recv_, acc_.data(), bytes_);
    }
  }

  void* recv_;
  ReduceOp op_;
  std::vector<std::byte> acc_;
  std::vector<std::byte> child_buf_;
};

class GatherSM final : public UpTreeSM {
 public:
  GatherSM(EndpointPtr ep, Tree tree, const void* send, int count,
           Datatype dt, void* recv, int tag)
      : UpTreeSM(std::move(ep), std::move(tree), count, dt, tag),
        recv_(recv), buf_(static_cast<std::size_t>(tree_.Extent()) * bytes_) {
    if (bytes_ != 0) std::memcpy(buf_.data(), send, bytes_);
    Start();
  }

 private:
  Request PostChild(std::size_t i) override {
    return ep_->Irecv(At(tree_.child_offsets[i]),
                      tree_.child_extents[i] * count_, dt_, tree_.children[i],
                      tag_);
  }
  void Finish() override {
    if (tree_.parent >= 0) {
      ep_->Send(buf_.data(), tree_.Extent() * count_, dt_, tree_.parent,
                tag_);
    } else if (bytes_ != 0) {
      // The buffer holds the tree in pre-order; scatter it by rank.
      auto* out = static_cast<std::byte*>(recv_);
      for (std::size_t pos = 0; pos < tree_.order.size(); ++pos) {
        std::memcpy(out + static_cast<std::size_t>(tree_.order[pos]) * bytes_,
                    At(static_cast<int>(pos)), bytes_);
      }
    }
  }
  std::byte* At(int block) {
    return buf_.data() + static_cast<std::size_t>(block) * bytes_;
  }

  void* recv_;
  std::vector<std::byte> buf_;
};

class GathervSM final : public SM {
 public:
  GathervSM(EndpointPtr ep, Tree tree, const void* send, int count,
            Datatype dt, void* recv, std::span<const int> recvcounts,
            std::span<const int> displs, int tag)
      : SM(std::move(ep), count, dt, tag), tree_(std::move(tree)),
        recv_(recv), counts_{count}, payload_(bytes_) {
    if (tree_.parent < 0) {
      const auto p = static_cast<std::size_t>(ep_->Size());
      if (recvcounts.size() < p || displs.size() < p) {
        throw UsageError("Gatherv: recvcounts and displs need Size() entries");
      }
      recvcounts_.assign(recvcounts.begin(), recvcounts.begin() + p);
      displs_.assign(displs.begin(), displs.begin() + p);
    }
    if (bytes_ != 0) std::memcpy(payload_.data(), send, bytes_);
  }

 protected:
  bool Test(Status*) override {
    // Probe for the child's size, then take the probed message, which is
    // already here. Appending in list order keeps counts_ and payload_ in
    // the tree's pre-order.
    while (child_ < tree_.children.size()) {
      const int child = tree_.children[child_];
      Status st;
      if (!ep_->Iprobe(child, tag_, &st)) return false;
      msg_.resize(st.bytes);
      ep_->Recv(msg_.data(), static_cast<int>(st.bytes), Datatype::kByte,
                child, tag_);
      std::int32_t n = 0;
      std::memcpy(&n, msg_.data(), sizeof n);
      const std::size_t old = counts_.size();
      counts_.resize(old + static_cast<std::size_t>(n));
      std::memcpy(counts_.data() + old, msg_.data() + sizeof n, sizeof n * n);
      const std::size_t hdr = sizeof n * (1 + static_cast<std::size_t>(n));
      payload_.insert(payload_.end(),
                      msg_.begin() + static_cast<std::ptrdiff_t>(hdr),
                      msg_.end());
      ++child_;
    }
    if (tree_.parent >= 0) {
      const std::int32_t n = static_cast<std::int32_t>(counts_.size());
      msg_.resize(sizeof n * (1 + counts_.size()) + payload_.size());
      std::memcpy(msg_.data(), &n, sizeof n);
      std::memcpy(msg_.data() + sizeof n, counts_.data(), sizeof n * n);
      if (!payload_.empty()) {
        std::memcpy(msg_.data() + sizeof n * (1 + counts_.size()),
                    payload_.data(), payload_.size());
      }
      ep_->Send(msg_.data(), static_cast<int>(msg_.size()), Datatype::kByte,
                tree_.parent, tag_);
      return true;
    }
    if (counts_.size() != tree_.order.size()) {
      throw UsageError("Gatherv: internal: incomplete subtree counts");
    }
    const std::size_t esize = SizeOf(dt_);
    auto* out = static_cast<std::byte*>(recv_);
    std::size_t off = 0;
    for (std::size_t pos = 0; pos < counts_.size(); ++pos) {
      const auto r = static_cast<std::size_t>(tree_.order[pos]);
      if (counts_[pos] != recvcounts_[r]) {
        throw UsageError("Gatherv: recvcounts disagree with sent counts");
      }
      const std::size_t nbytes = static_cast<std::size_t>(counts_[pos]) * esize;
      if (nbytes != 0) {
        std::memcpy(out + static_cast<std::size_t>(displs_[r]) * esize,
                    payload_.data() + off, nbytes);
      }
      off += nbytes;
    }
    return true;
  }

 private:
  Tree tree_;
  void* recv_;
  std::vector<int> recvcounts_, displs_;  // root only
  std::vector<std::int32_t> counts_;
  std::vector<std::byte> payload_;
  std::vector<std::byte> msg_;
  std::size_t child_ = 0;
};

class ScanSM final : public SM {
 public:
  ScanSM(EndpointPtr ep, const void* send, void* recv, int count,
         Datatype dt, ReduceOp op, int tag)
      : SM(std::move(ep), count, dt, tag), recv_(recv), op_(op),
        partial_(bytes_), incoming_(bytes_) {
    if (bytes_ != 0) std::memcpy(partial_.data(), send, bytes_);
    AdvanceRounds();
  }

 protected:
  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Test()) return false;
    // `incoming_` is the fold over the ranks below: the left operand.
    ApplyReduce(op_, dt_, partial_.data(), incoming_.data(), count_);
    partial_.swap(incoming_);
    ++round_;
    AdvanceRounds();
    return done_;
  }

 private:
  void AdvanceRounds() {
    const int p = ep_->Size();
    const int rank = ep_->Rank();
    for (; (1 << round_) < p; ++round_) {
      const int d = 1 << round_;
      // Send the pre-round partial before merging this round's input.
      if (rank + d < p) ep_->Send(partial_.data(), count_, dt_, rank + d, tag_);
      if (rank - d >= 0) {
        pending_ = ep_->Irecv(incoming_.data(), count_, dt_, rank - d, tag_);
        return;  // this round's data dependency
      }
    }
    if (bytes_ != 0) std::memcpy(recv_, partial_.data(), bytes_);
    done_ = true;
  }

  void* recv_;
  ReduceOp op_;
  std::vector<std::byte> partial_;
  std::vector<std::byte> incoming_;
  int round_ = 0;
};

/// Shared by both all-to-all algorithms: copied, checked count arrays and
/// the own block's local copy.
class AlltoallvBase : public SM {
 protected:
  AlltoallvBase(EndpointPtr ep, const void* send,
                std::span<const int> sendcounts, std::span<const int> sdispls,
                Datatype dt, void* recv, std::span<const int> recvcounts,
                std::span<const int> rdispls, int tag,
                std::int64_t segment_bytes)
      : SM(std::move(ep), 0, dt, tag),
        send_(static_cast<const std::byte*>(send)),
        recv_(static_cast<std::byte*>(recv)),
        sc_(sendcounts.begin(), sendcounts.end()),
        sd_(sdispls.begin(), sdispls.end()),
        rc_(recvcounts.begin(), recvcounts.end()),
        rd_(rdispls.begin(), rdispls.end()), esize_(SizeOf(dt)),
        segment_bytes_(segment_bytes) {
    const auto p = static_cast<std::size_t>(ep_->Size());
    if (sc_.size() != p || sd_.size() != p || rc_.size() != p ||
        rd_.size() != p) {
      throw UsageError(
          "Alltoallv: count/displacement arrays must have Size() entries");
    }
    for (std::size_t i = 0; i < p; ++i) {
      if (sc_[i] < 0 || rc_[i] < 0) {
        throw UsageError("Alltoallv: negative count");
      }
    }
    const auto me = static_cast<std::size_t>(ep_->Rank());
    if (sc_[me] != 0) {
      std::memcpy(recv_ + static_cast<std::size_t>(rd_[me]) * esize_,
                  send_ + static_cast<std::size_t>(sd_[me]) * esize_,
                  static_cast<std::size_t>(sc_[me]) * esize_);
    }
  }

  std::int64_t Segs(int count) const {
    return AlltoallvSegmentsOf(count, esize_, segment_bytes_);
  }

  /// Sends segment s of the block for `peer`.
  void SendSeg(int peer, std::int64_t s) {
    const auto i = static_cast<std::size_t>(peer);
    const auto [at, len] =
        AlltoallvSegmentRange(sc_[i], esize_, segment_bytes_, s);
    ep_->Send(send_ + static_cast<std::size_t>(sd_[i] + at) * esize_,
              static_cast<int>(len), dt_, peer, tag_);
  }

  /// Posts the receive of segment s of the block from `peer`.
  Request RecvSeg(int peer, std::int64_t s) {
    const auto i = static_cast<std::size_t>(peer);
    const auto [at, len] =
        AlltoallvSegmentRange(rc_[i], esize_, segment_bytes_, s);
    return ep_->Irecv(recv_ + static_cast<std::size_t>(rd_[i] + at) * esize_,
                      static_cast<int>(len), dt_, peer, tag_);
  }

  const std::byte* send_;
  std::byte* recv_;
  std::vector<int> sc_, sd_, rc_, rd_;
  std::size_t esize_;
  std::int64_t segment_bytes_;
};

class SpreadAlltoallvSM final : public AlltoallvBase {
 public:
  template <typename... A>
  explicit SpreadAlltoallvSM(A&&... a) : AlltoallvBase(std::forward<A>(a)...) {
    const int p = ep_->Size();
    const int rank = ep_->Rank();
    for (int off = 1; off < p; ++off) {
      const int dest = (rank + off) % p;
      const std::int64_t segs = Segs(sc_[static_cast<std::size_t>(dest)]);
      for (std::int64_t s = 0; s < segs; ++s) SendSeg(dest, s);
    }
    Advance();
  }

 protected:
  bool Test(Status*) override {
    while (off_ < ep_->Size()) {
      if (!pending_.Test()) return false;
      ++seg_;
      Advance();
    }
    return true;
  }

 private:
  /// Posts the next receive: sources rank - 1, rank - 2, ..., each
  /// block's segments in order.
  void Advance() {
    const int p = ep_->Size();
    for (; off_ < p; ++off_, seg_ = 0) {
      const int src = (ep_->Rank() - off_ + p) % p;
      if (seg_ < Segs(rc_[static_cast<std::size_t>(src)])) {
        pending_ = RecvSeg(src, seg_);
        return;
      }
    }
  }

  int off_ = 1;
  std::int64_t seg_ = 0;
};

class PairwiseAlltoallvSM final : public AlltoallvBase {
 public:
  template <typename... A>
  explicit PairwiseAlltoallvSM(A&&... a)
      : AlltoallvBase(std::forward<A>(a)...) {
    const int p = ep_->Size();
    pow2_ = (p & (p - 1)) == 0;
    for (int i = 0; i < p; ++i) {
      if (i == ep_->Rank()) continue;
      const auto ii = static_cast<std::size_t>(i);
      max_segs_ = std::max({max_segs_, Segs(sc_[ii]), Segs(rc_[ii])});
    }
    Advance();
  }

 protected:
  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Test()) return false;
    Advance();
    return done_;
  }

 private:
  /// Walks the (segment, round) grid to the next receive and parks there;
  /// sends along the way are eager.
  void Advance() {
    const int p = ep_->Size();
    const int rank = ep_->Rank();
    for (; seg_ < max_segs_; ++seg_, round_ = 0) {
      while (round_ < p) {
        const int r = round_++;
        const int partner = pow2_ ? (rank ^ r) : ((r - rank) % p + p) % p;
        if (partner == rank) continue;  // fixed point: own block
        const auto pi = static_cast<std::size_t>(partner);
        if (seg_ < Segs(sc_[pi])) SendSeg(partner, seg_);
        if (seg_ < Segs(rc_[pi])) {
          pending_ = RecvSeg(partner, seg_);
          return;
        }
      }
    }
    done_ = true;
  }

  bool pow2_ = false;
  std::int64_t max_segs_ = 1;
  std::int64_t seg_ = 0;
  int round_ = 0;
};

/// Splits one sparse payload into chunk messages and hands each to `send`
/// (first = the header chunk, on the payload tag). The trailing chunks go
/// out *before* the header: sends deposit eagerly in program order, so a
/// receiver that probed the header finds every trailing chunk queued.
template <typename F>
void SendChunked(const std::byte* payload, std::int64_t payload_bytes,
                 std::int64_t segment_bytes, F send) {
  const std::int64_t cap =
      segment_bytes > 0 ? SparseChunkCapacity(segment_bytes)
                        : std::max<std::int64_t>(payload_bytes, 0);
  const std::int64_t first_len = std::min<std::int64_t>(cap, payload_bytes);
  std::vector<std::byte> msg;
  const auto put = [&](std::int64_t head, std::int64_t at, std::int64_t len,
                       bool first) {
    msg.resize(static_cast<std::size_t>(kSparseChunkHeaderBytes + len));
    std::memcpy(msg.data(), &head, sizeof head);
    if (len != 0) {
      std::memcpy(msg.data() + kSparseChunkHeaderBytes, payload + at,
                  static_cast<std::size_t>(len));
    }
    send(msg, first);
  };
  std::int64_t seq = 0;
  for (std::int64_t at = first_len; at < payload_bytes; at += cap) {
    put(++seq, at, std::min<std::int64_t>(cap, payload_bytes - at), false);
  }
  put(payload_bytes, 0, first_len, true);
}

class SparseAlltoallvSM final : public RequestImpl {
 public:
  SparseAlltoallvSM(EndpointPtr ep, Tree fence_tree,
                    std::span<const SparseSendBlock> sends, Datatype dt,
                    std::vector<SparseRecvMessage>* received, SparseTags tags,
                    std::int64_t segment_bytes)
      : ep_(std::move(ep)), fence_tree_(std::move(fence_tree)),
        received_(received), tags_(tags) {
    if (received_ == nullptr) {
      throw UsageError("sparse exchange: null receive vector");
    }
    first_incoming_ = received_->size();
    for (const SparseSendBlock& b : sends) {
      if (b.dest < 0 || b.dest >= ep_->Size()) {
        throw UsageError("sparse exchange: destination out of range");
      }
      const auto* bytes = static_cast<const std::byte*>(b.data);
      const std::size_t n = Bytes(b.count, dt);
      if (b.dest == ep_->Rank()) {
        // Own block: local delivery, no message.
        received_->push_back({b.dest, {bytes, bytes + n}});
        continue;
      }
      SendChunked(bytes, static_cast<std::int64_t>(n), segment_bytes,
                  [&](const std::vector<std::byte>& msg, bool first) {
                    ep_->Send(msg.data(), static_cast<int>(msg.size()),
                              Datatype::kByte, b.dest,
                              first ? tags_.payload : tags_.chunk);
                  });
    }
    fence_ = MakeBarrier(ep_, fence_tree_, tags_.fence_a_up,
                         tags_.fence_a_down);
  }

 protected:
  bool Test(Status*) override {
    if (!drained_) {
      Drain(kAnySource);
      if (!fence_->Progress(nullptr)) return false;
      // Every member entered the first fence after posting its sends, and
      // sends deposit eagerly: everything owed to this rank is queued.
      Drain(kAnySource);
      for (int src = 0; src < ep_->Size(); ++src) {
        if (src != ep_->Rank()) Drain(src);
      }
      std::stable_sort(
          received_->begin() + static_cast<std::ptrdiff_t>(first_incoming_),
          received_->end(),
          [](const SparseRecvMessage& a, const SparseRecvMessage& b) {
            return a.source < b.source;
          });
      // The second fence keeps a back-to-back successor's sends on the
      // same tags out of this drain.
      fence_ = MakeBarrier(ep_, fence_tree_, tags_.fence_b_up,
                           tags_.fence_b_down);
      drained_ = true;
    }
    return fence_->Progress(nullptr);
  }

 private:
  /// Takes every queued payload from `src` (kAnySource: up to the first
  /// probe miss), reassembling chunked ones.
  void Drain(int src) {
    Status st;
    while (ep_->Iprobe(src, tags_.payload, &st)) {
      std::vector<std::byte> first(st.bytes);
      ep_->Recv(first.data(), static_cast<int>(st.bytes), Datatype::kByte,
                st.source, tags_.payload);
      if (first.size() < static_cast<std::size_t>(kSparseChunkHeaderBytes)) {
        throw Error("sparse exchange: malformed first chunk");
      }
      std::int64_t total = 0;
      std::memcpy(&total, first.data(), sizeof total);
      SparseRecvMessage msg{st.source, {}};
      msg.bytes.assign(first.begin() + kSparseChunkHeaderBytes, first.end());
      for (std::int64_t seq = 1;
           static_cast<std::int64_t>(msg.bytes.size()) < total; ++seq) {
        Status cst;
        std::int64_t got = 0;
        if (!ep_->Iprobe(st.source, tags_.chunk, &cst) ||
            cst.bytes < static_cast<std::size_t>(kSparseChunkHeaderBytes)) {
          throw Error("sparse exchange: trailing chunk missing");
        }
        std::vector<std::byte> chunk(cst.bytes);
        ep_->Recv(chunk.data(), static_cast<int>(cst.bytes), Datatype::kByte,
                  st.source, tags_.chunk);
        std::memcpy(&got, chunk.data(), sizeof got);
        if (got != seq) {
          throw Error("sparse exchange: trailing chunk out of sequence");
        }
        msg.bytes.insert(msg.bytes.end(),
                         chunk.begin() + kSparseChunkHeaderBytes, chunk.end());
      }
      if (static_cast<std::int64_t>(msg.bytes.size()) != total) {
        throw Error("sparse exchange: chunks disagree with their header");
      }
      received_->push_back(std::move(msg));
    }
  }

  EndpointPtr ep_;
  Tree fence_tree_;
  std::vector<SparseRecvMessage>* received_;
  SparseTags tags_;
  std::size_t first_incoming_ = 0;
  Schedule fence_;
  bool drained_ = false;
};

}  // namespace

EndpointPtr ChannelEndpoint(Comm comm, Channel ch, std::vector<int> members,
                            int rank) {
  return std::make_shared<ChannelBinding>(std::move(comm), ch,
                                          std::move(members), rank);
}

void Run(Schedule sm, std::string_view what) {
  Request req(std::move(sm));
  WaitUntil([&] { return req.Test(); }, what);
}

Schedule MakeChain(Schedule first, std::function<Schedule()> next) {
  return std::make_shared<ChainSM>(std::move(first), std::move(next));
}

Schedule MakeBcast(EndpointPtr ep, Tree tree, void* buf, int count,
                   Datatype dt, int tag) {
  return std::make_shared<BcastSM>(std::move(ep), std::move(tree), buf, count,
                                   dt, tag);
}

Schedule MakeReduce(EndpointPtr ep, Tree tree, const void* send, void* recv,
                    int count, Datatype dt, ReduceOp op, int tag) {
  return std::make_shared<ReduceSM>(std::move(ep), std::move(tree), send,
                                    recv, count, dt, op, tag);
}

Schedule MakeGather(EndpointPtr ep, Tree tree, const void* send, int count,
                    Datatype dt, void* recv, int tag) {
  return std::make_shared<GatherSM>(std::move(ep), std::move(tree), send,
                                    count, dt, recv, tag);
}

Schedule MakeGatherv(EndpointPtr ep, Tree tree, const void* send, int count,
                     Datatype dt, void* recv,
                     std::span<const int> recvcounts,
                     std::span<const int> displs, int tag) {
  return std::make_shared<GathervSM>(std::move(ep), std::move(tree), send,
                                     count, dt, recv, recvcounts, displs,
                                     tag);
}

Schedule MakeScan(EndpointPtr ep, const void* send, void* recv, int count,
                  Datatype dt, ReduceOp op, int tag) {
  return std::make_shared<ScanSM>(std::move(ep), send, recv, count, dt, op,
                                  tag);
}

Schedule MakeAllreduce(EndpointPtr ep, Tree tree, const void* send,
                       void* recv, int count, Datatype dt, ReduceOp op,
                       int up_tag, int down_tag) {
  Schedule up = MakeReduce(ep, tree, send, recv, count, dt, op, up_tag);
  return MakeChain(std::move(up), [=] {
    return MakeBcast(ep, tree, recv, count, dt, down_tag);
  });
}

Schedule MakeBarrier(EndpointPtr ep, Tree tree, int up_tag, int down_tag) {
  auto token = std::make_shared<std::uint8_t>(0);
  Schedule up = MakeReduce(ep, tree, token.get(), token.get(), 1,
                           Datatype::kByte, ReduceOp::kBor, up_tag);
  return MakeChain(std::move(up), [=] {
    return MakeBcast(ep, tree, token.get(), 1, Datatype::kByte, down_tag);
  });
}

Schedule MakeAllgather(EndpointPtr ep, Tree tree, const void* send,
                       int count, Datatype dt, void* recv, int up_tag,
                       int down_tag) {
  Schedule up = MakeGather(ep, tree, send, count, dt, recv, up_tag);
  return MakeChain(std::move(up), [=] {
    return MakeBcast(ep, tree, recv, count * ep->Size(), dt, down_tag);
  });
}

Schedule MakeAlltoallv(EndpointPtr ep, AlltoallAlgo algo, const void* send,
                       std::span<const int> sendcounts,
                       std::span<const int> sdispls, Datatype dt, void* recv,
                       std::span<const int> recvcounts,
                       std::span<const int> rdispls, int tag,
                       std::int64_t segment_bytes) {
  if (algo == AlltoallAlgo::kSpread) {
    return std::make_shared<SpreadAlltoallvSM>(
        std::move(ep), send, sendcounts, sdispls, dt, recv, recvcounts,
        rdispls, tag, segment_bytes);
  }
  return std::make_shared<PairwiseAlltoallvSM>(
      std::move(ep), send, sendcounts, sdispls, dt, recv, recvcounts, rdispls,
      tag, segment_bytes);
}

Schedule MakeSparseAlltoallv(EndpointPtr ep, Tree fence_tree,
                             std::span<const SparseSendBlock> sends,
                             Datatype dt,
                             std::vector<SparseRecvMessage>* received,
                             SparseTags tags, std::int64_t segment_bytes) {
  return std::make_shared<SparseAlltoallvSM>(std::move(ep),
                                             std::move(fence_tree), sends, dt,
                                             received, tags, segment_bytes);
}

}  // namespace mpisim::detail
