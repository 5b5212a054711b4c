#include "mpisim/nbc.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "mpisim/error.hpp"
#include "mpisim/p2p.hpp"
#include "mpisim/sanitizer.hpp"

namespace mpisim {
namespace detail {

BinomialTree BinomialTree::Compute(int rank, int p, int root) {
  BinomialTree t;
  const int relrank = (rank - root + p) % p;
  if (relrank != 0) {
    const int lowbit = relrank & (-relrank);
    t.parent = ((relrank ^ lowbit) + root) % p;
  }
  const int limit = relrank == 0 ? p : (relrank & (-relrank));
  for (int m = 1; m < limit && relrank + m < p; m <<= 1) {
    const int rel_child = relrank + m;
    t.children.push_back((rel_child + root) % p);
    t.child_extents.push_back(std::min(m, p - rel_child));
  }
  return t;
}

namespace {

constexpr Channel kCh = Channel::kNbc;

std::size_t Bytes(int count, Datatype dt) {
  if (count < 0) throw UsageError("nonblocking collective: negative count");
  return static_cast<std::size_t>(count) * SizeOf(dt);
}

class IbcastSM final : public RequestImpl {
 public:
  IbcastSM(void* buf, int count, Datatype dt, int root, Comm comm, int tag)
      : buf_(buf), count_(count), dt_(dt), comm_(std::move(comm)), tag_(tag),
        tree_(BinomialTree::Compute(comm_.Rank(), comm_.Size(), root)) {
    if (tree_.parent < 0) {
      SendToChildren();
      done_ = true;
    } else {
      pending_ = IrecvOnChannel(buf_, count_, dt_, tree_.parent, tag_, comm_,
                                kCh);
    }
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Test()) return false;
    SendToChildren();
    done_ = true;
    return true;
  }

 private:
  void SendToChildren() {
    // Largest subtree first, so deep subtrees start as early as possible.
    for (int i = static_cast<int>(tree_.children.size()) - 1; i >= 0; --i) {
      SendOnChannel(buf_, count_, dt_, tree_.children[i], tag_, comm_, kCh);
    }
  }

  void* buf_;
  int count_;
  Datatype dt_;
  Comm comm_;
  int tag_;
  BinomialTree tree_;
  Request pending_;
  bool done_ = false;
};

class IreduceSM final : public RequestImpl {
 public:
  IreduceSM(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
            int root, Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), op_(op),
        comm_(std::move(comm)), tag_(tag),
        tree_(BinomialTree::Compute(comm_.Rank(), comm_.Size(), root)),
        acc_(Bytes(count, dt)), child_buf_(acc_.size()) {
    if (!acc_.empty()) std::memcpy(acc_.data(), send, acc_.size());
    if (!tree_.children.empty()) PostChild();
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Children one at a time, in increasing mask order: the fold order,
    // and so the model time, never depends on which message arrived
    // first.
    while (child_ < tree_.children.size()) {
      if (!pending_.Test()) return false;
      ApplyReduce(op_, dt_, child_buf_.data(), acc_.data(), count_);
      if (++child_ < tree_.children.size()) PostChild();
    }
    if (tree_.parent >= 0) {
      SendOnChannel(acc_.data(), count_, dt_, tree_.parent, tag_, comm_, kCh);
    } else if (recv_ != nullptr && !acc_.empty()) {
      std::memcpy(recv_, acc_.data(), acc_.size());
    }
    done_ = true;
    return true;
  }

 private:
  void PostChild() {
    pending_ = IrecvOnChannel(child_buf_.data(), count_, dt_,
                              tree_.children[child_], tag_, comm_, kCh);
  }

  void* recv_;
  int count_;
  Datatype dt_;
  ReduceOp op_;
  Comm comm_;
  int tag_;
  BinomialTree tree_;
  std::vector<std::byte> acc_;
  std::vector<std::byte> child_buf_;
  std::size_t child_ = 0;
  Request pending_;
  bool done_ = false;
};

class IscanSM final : public RequestImpl {
 public:
  IscanSM(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
          Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), op_(op), comm_(std::move(comm)),
        tag_(tag), partial_(Bytes(count, dt)), incoming_(partial_.size()) {
    if (!partial_.empty()) std::memcpy(partial_.data(), send, partial_.size());
    AdvanceRounds();
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (!pending_.Test()) return false;
    // `incoming_` holds the fold over ranks < rank; it is the left operand.
    ApplyReduce(op_, dt_, partial_.data(), incoming_.data(), count_);
    partial_.swap(incoming_);
    d_ <<= 1;
    AdvanceRounds();
    return done_;
  }

 private:
  void AdvanceRounds() {
    const int p = comm_.Size();
    const int rank = comm_.Rank();
    while (d_ < p) {
      if (rank + d_ < p) {
        SendOnChannel(partial_.data(), count_, dt_, rank + d_, tag_, comm_,
                      kCh);
      }
      if (rank - d_ >= 0) {
        pending_ = IrecvOnChannel(incoming_.data(), count_, dt_, rank - d_,
                                  tag_, comm_, kCh);
        return;  // wait for this round's data dependency
      }
      d_ <<= 1;
    }
    if (!partial_.empty()) std::memcpy(recv_, partial_.data(), partial_.size());
    done_ = true;
  }

  void* recv_;
  int count_;
  Datatype dt_;
  ReduceOp op_;
  Comm comm_;
  int tag_;
  std::vector<std::byte> partial_;
  std::vector<std::byte> incoming_;
  Request pending_;
  int d_ = 1;
  bool done_ = false;
};

class IgatherSM final : public RequestImpl {
 public:
  IgatherSM(const void* send, int count, Datatype dt, void* recv, int root,
            Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), root_(root),
        comm_(std::move(comm)), tag_(tag),
        tree_(BinomialTree::Compute(comm_.Rank(), comm_.Size(), root)),
        block_(Bytes(count, dt)) {
    extent_ = 1;
    for (int e : tree_.child_extents) extent_ += e;
    buf_.resize(static_cast<std::size_t>(extent_) * block_);
    if (block_ != 0) std::memcpy(buf_.data(), send, block_);
    if (!tree_.children.empty()) PostChild();
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Children one at a time, in increasing mask order, so the model time
    // never depends on which subtree's message arrived first.
    while (child_ < tree_.children.size()) {
      if (!pending_.Test()) return false;
      if (++child_ < tree_.children.size()) PostChild();
    }
    if (tree_.parent >= 0) {
      SendOnChannel(buf_.data(), extent_ * count_, dt_, tree_.parent, tag_,
                    comm_, kCh);
    } else if (block_ != 0) {
      // Rotate relative-rank-ordered blocks into absolute order.
      const int p = comm_.Size();
      auto* out = static_cast<std::byte*>(recv_);
      for (int rel = 0; rel < p; ++rel) {
        const int abs = (rel + root_) % p;
        std::memcpy(out + static_cast<std::size_t>(abs) * block_,
                    buf_.data() + static_cast<std::size_t>(rel) * block_,
                    block_);
      }
    }
    done_ = true;
    return true;
  }

 private:
  // The i-th child (increasing mask order) roots the subtree at relative
  // offset 1 << i inside this rank's slice.
  void PostChild() {
    pending_ = IrecvOnChannel(buf_.data() + (std::size_t{1} << child_) * block_,
                              tree_.child_extents[child_] * count_, dt_,
                              tree_.children[child_], tag_, comm_, kCh);
  }

  void* recv_;
  int count_;
  Datatype dt_;
  int root_;
  Comm comm_;
  int tag_;
  BinomialTree tree_;
  std::size_t block_;
  int extent_ = 1;
  std::vector<std::byte> buf_;
  std::size_t child_ = 0;
  Request pending_;
  bool done_ = false;
};

// Subtree message layout for Igatherv (same as blocking Gatherv):
// [int32 n][int32 counts[n]][payload], counts in relative-rank order.
class IgathervSM final : public RequestImpl {
 public:
  IgathervSM(const void* send, int count, Datatype dt, void* recv,
             std::span<const int> recvcounts, std::span<const int> displs,
             int root, Comm comm, int tag)
      : recv_(recv), recvcounts_(recvcounts.begin(), recvcounts.end()),
        displs_(displs.begin(), displs.end()), dt_(dt), root_(root),
        comm_(std::move(comm)), tag_(tag),
        tree_(BinomialTree::Compute(comm_.Rank(), comm_.Size(), root)) {
    counts_.push_back(count);
    payload_.resize(Bytes(count, dt));
    if (!payload_.empty()) std::memcpy(payload_.data(), send, payload_.size());
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Children one at a time, in increasing mask order (== relative-rank
    // order): probe for the child's size, then take the probed message,
    // which is already here. The model time never depends on which
    // message arrived first.
    while (child_ < tree_.children.size()) {
      const int child = tree_.children[child_];
      Status st;
      if (!IprobeOnChannel(child, tag_, comm_, kCh, &st)) return false;
      child_msg_.resize(st.bytes);
      RecvOnChannel(child_msg_.data(), static_cast<int>(st.bytes),
                    Datatype::kByte, child, tag_, comm_, kCh, nullptr);
      AppendChild(child_msg_);
      ++child_;
    }
    Finish();
    done_ = true;
    return true;
  }

 private:
  void AppendChild(const std::vector<std::byte>& msg) {
    std::int32_t n = 0;
    std::memcpy(&n, msg.data(), sizeof n);
    const std::size_t old = counts_.size();
    counts_.resize(old + static_cast<std::size_t>(n));
    std::memcpy(counts_.data() + old, msg.data() + sizeof n,
                sizeof(std::int32_t) * static_cast<std::size_t>(n));
    const std::size_t hdr =
        sizeof(std::int32_t) * (1 + static_cast<std::size_t>(n));
    if (msg.size() == hdr) return;  // an all-empty subtree
    const std::size_t oldp = payload_.size();
    payload_.resize(oldp + (msg.size() - hdr));
    std::memcpy(payload_.data() + oldp, msg.data() + hdr, msg.size() - hdr);
  }

  void Finish() {
    if (tree_.parent >= 0) {
      std::vector<std::byte> msg(sizeof(std::int32_t) * (1 + counts_.size()) +
                                 payload_.size());
      const std::int32_t n = static_cast<std::int32_t>(counts_.size());
      std::memcpy(msg.data(), &n, sizeof n);
      std::memcpy(msg.data() + sizeof n, counts_.data(),
                  sizeof(std::int32_t) * counts_.size());
      if (!payload_.empty()) {
        std::memcpy(msg.data() + sizeof(std::int32_t) * (1 + counts_.size()),
                    payload_.data(), payload_.size());
      }
      SendOnChannel(msg.data(), static_cast<int>(msg.size()), Datatype::kByte,
                    tree_.parent, tag_, comm_, kCh);
      return;
    }
    const int p = comm_.Size();
    if (static_cast<int>(counts_.size()) != p) {
      throw UsageError("Igatherv: internal: incomplete subtree counts");
    }
    const std::size_t esize = SizeOf(dt_);
    auto* out = static_cast<std::byte*>(recv_);
    std::size_t off = 0;
    for (int rel = 0; rel < p; ++rel) {
      const int abs = (rel + root_) % p;
      if (counts_[rel] != recvcounts_[abs]) {
        throw UsageError("Igatherv: recvcounts disagree with sent counts");
      }
      const std::size_t nbytes =
          static_cast<std::size_t>(counts_[rel]) * esize;
      if (nbytes != 0) {
        std::memcpy(out + static_cast<std::size_t>(displs_[abs]) * esize,
                    payload_.data() + off, nbytes);
      }
      off += nbytes;
    }
  }

  void* recv_;
  std::vector<int> recvcounts_;
  std::vector<int> displs_;
  Datatype dt_;
  int root_;
  Comm comm_;
  int tag_;
  BinomialTree tree_;
  std::vector<std::int32_t> counts_;
  std::vector<std::byte> payload_;
  std::size_t child_ = 0;
  std::vector<std::byte> child_msg_;
  bool done_ = false;
};

/// Reduce-to-0 then broadcast, chained; used by Iallreduce and Ibarrier.
class IReduceBcastChain final : public RequestImpl {
 public:
  IReduceBcastChain(const void* send, void* recv, int count, Datatype dt,
                    ReduceOp op, Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), comm_(std::move(comm)),
        tag_(tag) {
    reduce_ = std::make_shared<IreduceSM>(send, recv, count, dt, op, 0, comm_,
                                          tag_);
  }

  bool Test(Status*) override {
    if (done_) return true;
    if (bcast_ == nullptr) {
      Status st;
      if (!reduce_->Progress(&st)) return false;
      bcast_ = std::make_shared<IbcastSM>(recv_, count_, dt_, 0, comm_,
                                          tag_ + 1);
    }
    Status st;
    if (!bcast_->Progress(&st)) return false;
    done_ = true;
    return true;
  }

 private:
  void* recv_;
  int count_;
  Datatype dt_;
  Comm comm_;
  int tag_;
  std::shared_ptr<IreduceSM> reduce_;
  std::shared_ptr<IbcastSM> bcast_;
  bool done_ = false;
};

class IbarrierSM final : public RequestImpl {
 public:
  explicit IbarrierSM(Comm comm, int tag)
      : chain_(&token_, &token_, 1, Datatype::kByte, ReduceOp::kBor,
               std::move(comm), tag) {}

  bool Test(Status* st) override { return chain_.Progress(st); }

 private:
  std::uint8_t token_ = 0;
  IReduceBcastChain chain_;
};

/// Spread-out personalized all-to-all: all sends are injected eagerly at
/// start (mirroring the blocking Alltoallv), all receives posted up front;
/// Test drains the receives. Zero-count blocks are still transmitted.
/// With a segment limit each per-peer block ships as pipelined segments of
/// at most segment_bytes; segments of one block share the tag and are
/// sequenced by per-envelope FIFO order (receives from one source are
/// posted in segment order, so the k-th pending receive matches the k-th
/// sent segment).
class IalltoallvSM final : public RequestImpl {
 public:
  IalltoallvSM(const void* send, std::span<const int> sendcounts,
               std::span<const int> sdispls, Datatype dt, void* recv,
               std::span<const int> recvcounts, std::span<const int> rdispls,
               Comm comm, int tag, std::int64_t segment_bytes)
      : comm_(std::move(comm)) {
    const int p = comm_.Size();
    const int rank = comm_.Rank();
    if (static_cast<int>(sendcounts.size()) != p ||
        static_cast<int>(sdispls.size()) != p ||
        static_cast<int>(recvcounts.size()) != p ||
        static_cast<int>(rdispls.size()) != p) {
      throw UsageError(
          "Ialltoallv: count/displacement arrays must have Size() entries");
    }
    const std::size_t esize = SizeOf(dt);
    const auto* in = static_cast<const std::byte*>(send);
    auto* out = static_cast<std::byte*>(recv);
    // Self copy first.
    const std::size_t self =
        Bytes(sendcounts[static_cast<std::size_t>(rank)], dt);
    if (self != 0) {
      std::memcpy(out + static_cast<std::size_t>(
                            rdispls[static_cast<std::size_t>(rank)]) * esize,
                  in + static_cast<std::size_t>(
                           sdispls[static_cast<std::size_t>(rank)]) * esize,
                  self);
    }
    for (int off = 1; off < p; ++off) {
      const int dest = (rank + off) % p;
      const auto di = static_cast<std::size_t>(dest);
      const std::int64_t segs =
          AlltoallvSegmentsOf(sendcounts[di], esize, segment_bytes);
      for (std::int64_t s = 0; s < segs; ++s) {
        const auto [at, len] =
            AlltoallvSegmentRange(sendcounts[di], esize, segment_bytes, s);
        SendOnChannel(
            in + static_cast<std::size_t>(sdispls[di] + at) * esize,
            static_cast<int>(len), dt, dest, tag, comm_, kCh);
      }
    }
    // Receives from one source must be pending one at a time: two open
    // receives sharing (source, tag) would race for the FIFO head. Each
    // peer's segment queue therefore posts its next receive only when the
    // previous one completed.
    dt_ = dt;
    tag_ = tag;
    for (int off = 1; off < p; ++off) {
      const int src = (rank - off + p) % p;
      const auto si = static_cast<std::size_t>(src);
      const std::int64_t segs =
          AlltoallvSegmentsOf(recvcounts[si], esize, segment_bytes);
      PeerRecv pr;
      pr.src = src;
      for (std::int64_t s = 0; s < segs; ++s) {
        const auto [at, len] =
            AlltoallvSegmentRange(recvcounts[si], esize, segment_bytes, s);
        pr.segs.emplace_back(
            out + static_cast<std::size_t>(rdispls[si] + at) * esize,
            static_cast<int>(len));
      }
      peers_.push_back(std::move(pr));
    }
    for (PeerRecv& pr : peers_) PostNext(pr);
  }

  bool Test(Status*) override {
    bool all = true;
    for (PeerRecv& pr : peers_) {
      while (pr.active.Test()) {
        if (pr.next == pr.segs.size()) break;
        PostNext(pr);
      }
      all &= pr.next == pr.segs.size() && pr.active.Test();
    }
    return all;
  }

 private:
  struct PeerRecv {
    int src = 0;
    std::vector<std::pair<std::byte*, int>> segs;  // buffer, element count
    std::size_t next = 0;  // first segment without a posted receive
    Request active;
  };

  void PostNext(PeerRecv& pr) {
    const auto [buf, len] = pr.segs[pr.next++];
    pr.active = IrecvOnChannel(buf, len, dt_, pr.src, tag_, comm_, kCh);
  }

  Comm comm_;
  Datatype dt_ = Datatype::kByte;
  int tag_ = 0;
  std::vector<PeerRecv> peers_;
};

int NextTagPair(const Comm& comm) {
  // Chained operations (allreduce, barrier) consume two tag values so the
  // reduce and broadcast halves never share a (source, tag) pair.
  const int t = comm.NextNbcTag();
  comm.NextNbcTag();
  return t * 2;  // even base; +1 used by the chained second stage
}

}  // namespace

/// Sends one sparse payload, chunked under `segment_bytes`, over the
/// shared chunk wire format (see nbc.hpp): the first message on
/// `payload_tag` is [int64 total bytes][payload...]; trailing chunks go to
/// `chunk_tag` as [int64 seq][payload...], seq = 1, 2, .... Shared between
/// the substrate and the RBC sparse collective via the `send` callback
/// (which injects one message of raw bytes to the destination).
void SendChunkedSparse(
    const std::byte* payload, std::int64_t payload_bytes,
    std::int64_t segment_bytes,
    const std::function<void(const std::vector<std::byte>&, bool first)>&
        send) {
  const std::int64_t cap =
      segment_bytes > 0 ? SparseChunkCapacity(segment_bytes)
                        : std::max<std::int64_t>(payload_bytes, 0);
  const std::int64_t first_len = std::min<std::int64_t>(cap, payload_bytes);
  // Trailing chunks are injected *before* the header chunk: the substrate
  // deposits eagerly in program order, so once a receiver probes the
  // header chunk, every trailing chunk of this payload already sits in
  // its mailbox -- the receive side can reassemble inside a nonblocking
  // Test without ever waiting.
  std::int64_t at = first_len, seq = 0;
  while (at < payload_bytes) {
    ++seq;
    const std::int64_t len = std::min<std::int64_t>(cap, payload_bytes - at);
    std::vector<std::byte> msg(
        static_cast<std::size_t>(kSparseChunkHeaderBytes + len));
    std::memcpy(msg.data(), &seq, sizeof seq);
    std::memcpy(msg.data() + kSparseChunkHeaderBytes, payload + at,
                static_cast<std::size_t>(len));
    send(msg, /*first=*/false);
    at += len;
  }
  std::vector<std::byte> msg(
      static_cast<std::size_t>(kSparseChunkHeaderBytes + first_len));
  std::memcpy(msg.data(), &payload_bytes, sizeof payload_bytes);
  if (first_len != 0) {
    std::memcpy(msg.data() + kSparseChunkHeaderBytes, payload,
                static_cast<std::size_t>(first_len));
  }
  send(msg, /*first=*/true);
}

/// Reassembles one chunked sparse payload whose first chunk is `first`:
/// parses the total, then pulls trailing chunks via `recv_chunk(seq)`
/// (which must return the next chunk message from the same source).
std::vector<std::byte> ReassembleChunkedSparse(
    const std::vector<std::byte>& first,
    const std::function<std::vector<std::byte>(std::int64_t seq)>&
        recv_chunk) {
  if (static_cast<std::int64_t>(first.size()) < kSparseChunkHeaderBytes) {
    throw Error("sparse exchange: malformed first chunk");
  }
  std::int64_t total = 0;
  std::memcpy(&total, first.data(), sizeof total);
  if (total < 0 ||
      static_cast<std::int64_t>(first.size()) - kSparseChunkHeaderBytes >
          total) {
    throw Error("sparse exchange: first chunk disagrees with its header");
  }
  std::vector<std::byte> payload(first.begin() + kSparseChunkHeaderBytes,
                                 first.end());
  std::int64_t seq = 0;
  while (static_cast<std::int64_t>(payload.size()) < total) {
    const std::vector<std::byte> chunk = recv_chunk(++seq);
    if (static_cast<std::int64_t>(chunk.size()) < kSparseChunkHeaderBytes) {
      throw Error("sparse exchange: malformed trailing chunk");
    }
    std::int64_t got_seq = 0;
    std::memcpy(&got_seq, chunk.data(), sizeof got_seq);
    if (got_seq != seq ||
        static_cast<std::int64_t>(payload.size() + chunk.size()) -
                kSparseChunkHeaderBytes >
            total) {
      throw Error("sparse exchange: trailing chunk out of sequence");
    }
    payload.insert(payload.end(), chunk.begin() + kSparseChunkHeaderBytes,
                   chunk.end());
  }
  return payload;
}

namespace {

/// Sparse personalized exchange (see nbc.hpp). All four tags (payload,
/// chunk continuation, two barrier pairs) are drawn in the constructor, so
/// the NBC tag counter stays synchronous across ranks even when other
/// nonblocking collectives start on the communicator while this one is in
/// flight. The chunk tag is the odd sibling of the (even) payload tag --
/// nothing else ever allocates it.
class SparseAlltoallvSM final : public RequestImpl {
 public:
  SparseAlltoallvSM(std::span<const SparseSendBlock> sends, Datatype dt,
                    std::vector<SparseRecvMessage>* received, Comm comm,
                    std::int64_t segment_bytes)
      : received_(received), comm_(std::move(comm)),
        tag_(2 * comm_.NextNbcTag()), barrier_a_tag_(NextTagPair(comm_)),
        barrier_b_tag_(NextTagPair(comm_)) {
    if (received_ == nullptr) {
      throw UsageError("IsparseAlltoallv: null receive vector");
    }
    first_incoming_ = received_->size();
    const int p = comm_.Size();
    for (const SparseSendBlock& b : sends) {
      if (b.dest < 0 || b.dest >= p) {
        throw UsageError("IsparseAlltoallv: destination out of range");
      }
      if (b.count < 0) {
        throw UsageError("IsparseAlltoallv: negative count");
      }
      if (b.dest == comm_.Rank()) {
        // Self block: local delivery, no message.
        const auto* bytes = static_cast<const std::byte*>(b.data);
        received_->push_back(SparseRecvMessage{
            b.dest,
            std::vector<std::byte>(bytes, bytes + Bytes(b.count, dt))});
      } else {
        SendChunkedSparse(
            static_cast<const std::byte*>(b.data),
            static_cast<std::int64_t>(Bytes(b.count, dt)), segment_bytes,
            [&](const std::vector<std::byte>& msg, bool first) {
              SendOnChannel(msg.data(), static_cast<int>(msg.size()),
                            Datatype::kByte, b.dest,
                            first ? tag_ : tag_ + 1, comm_, kCh);
            });
      }
    }
    barrier_ = std::make_shared<IbarrierSM>(comm_, barrier_a_tag_);
  }

  bool Test(Status*) override {
    if (phase_ == 0) {
      Drain();
      if (!barrier_->Progress(nullptr)) return false;
      // Every rank has posted its sends (it entered barrier A after
      // them), and eager deposit makes them all visible: this drain is
      // exact.
      Drain();
      std::stable_sort(received_->begin() + static_cast<std::ptrdiff_t>(
                                                first_incoming_),
                       received_->end(),
                       [](const SparseRecvMessage& a,
                          const SparseRecvMessage& b) {
                         return a.source < b.source;
                       });
      barrier_ = std::make_shared<IbarrierSM>(comm_, barrier_b_tag_);
      phase_ = 1;
    }
    return barrier_->Progress(nullptr);
  }

 private:
  void Drain() {
    Status st;
    while (IprobeOnChannel(kAnySource, tag_, comm_, kCh, &st)) {
      std::vector<std::byte> first(st.bytes);
      RecvOnChannel(first.data(), static_cast<int>(st.bytes),
                    Datatype::kByte, st.source, tag_, comm_, kCh);
      SparseRecvMessage msg;
      msg.source = st.source;
      // Trailing chunks were deposited *before* their header chunk, so
      // these receives complete without waiting and Test stays
      // nonblocking.
      msg.bytes = ReassembleChunkedSparse(first, [&](std::int64_t) {
        Status cst;
        ProbeOnChannel(st.source, tag_ + 1, comm_, kCh, &cst);
        std::vector<std::byte> chunk(cst.bytes);
        RecvOnChannel(chunk.data(), static_cast<int>(cst.bytes),
                      Datatype::kByte, st.source, tag_ + 1, comm_, kCh);
        return chunk;
      });
      received_->push_back(std::move(msg));
    }
  }

  std::vector<SparseRecvMessage>* received_;
  Comm comm_;
  int tag_;
  int barrier_a_tag_;
  int barrier_b_tag_;
  std::size_t first_incoming_ = 0;
  std::shared_ptr<IbarrierSM> barrier_;
  int phase_ = 0;
};

}  // namespace
}  // namespace detail

namespace {
/// Records a nonblocking collective's envelope at initiation time (the
/// NBC-tag-counter precondition already requires all ranks to initiate in
/// the same order, so initiation order is the checked sequence). The tag
/// field stays -1: NBC tags are derived from the synchronized counter and
/// carry no caller intent of their own.
void RecordNbc(const Comm& comm, sanitize::OpRecord rec) {
  rec.nonblocking = true;
  sanitize::Scope san(comm, std::move(rec));
}
}  // namespace

Request Ibcast(void* buf, int count, Datatype dt, int root, const Comm& comm) {
  if (comm.IsNull()) throw UsageError("Ibcast: null communicator");
  if (root < 0 || root >= comm.Size()) throw UsageError("Ibcast: bad root");
  RecordNbc(comm,
            sanitize::MakeOp(sanitize::CollKind::kBcast, root, /*tag=*/-1,
                             count, static_cast<std::uint32_t>(SizeOf(dt))));
  return Request(std::make_shared<detail::IbcastSM>(buf, count, dt, root,
                                                    comm,
                                                    2 * comm.NextNbcTag()));
}

Request Ireduce(const void* send, void* recv, int count, Datatype dt,
                ReduceOp op, int root, const Comm& comm) {
  if (comm.IsNull()) throw UsageError("Ireduce: null communicator");
  if (root < 0 || root >= comm.Size()) throw UsageError("Ireduce: bad root");
  RecordNbc(comm,
            sanitize::MakeOp(sanitize::CollKind::kReduce, root, /*tag=*/-1,
                             count, static_cast<std::uint32_t>(SizeOf(dt))));
  return Request(std::make_shared<detail::IreduceSM>(
      send, recv, count, dt, op, root, comm, 2 * comm.NextNbcTag()));
}

Request Iallreduce(const void* send, void* recv, int count, Datatype dt,
                   ReduceOp op, const Comm& comm) {
  if (comm.IsNull()) throw UsageError("Iallreduce: null communicator");
  RecordNbc(comm, sanitize::MakeOp(sanitize::CollKind::kAllreduce,
                                   /*root=*/-1, /*tag=*/-1, count,
                                   static_cast<std::uint32_t>(SizeOf(dt))));
  return Request(std::make_shared<detail::IReduceBcastChain>(
      send, recv, count, dt, op, comm, detail::NextTagPair(comm)));
}

Request Iscan(const void* send, void* recv, int count, Datatype dt,
              ReduceOp op, const Comm& comm) {
  if (comm.IsNull()) throw UsageError("Iscan: null communicator");
  RecordNbc(comm, sanitize::MakeOp(sanitize::CollKind::kScan, /*root=*/-1,
                                   /*tag=*/-1, count,
                                   static_cast<std::uint32_t>(SizeOf(dt))));
  return Request(std::make_shared<detail::IscanSM>(send, recv, count, dt, op,
                                                   comm,
                                                   2 * comm.NextNbcTag()));
}

Request Igather(const void* send, int count, Datatype dt, void* recv,
                int root, const Comm& comm) {
  if (comm.IsNull()) throw UsageError("Igather: null communicator");
  if (root < 0 || root >= comm.Size()) throw UsageError("Igather: bad root");
  RecordNbc(comm,
            sanitize::MakeOp(sanitize::CollKind::kGather, root, /*tag=*/-1,
                             count, static_cast<std::uint32_t>(SizeOf(dt))));
  return Request(std::make_shared<detail::IgatherSM>(
      send, count, dt, recv, root, comm, 2 * comm.NextNbcTag()));
}

Request Igatherv(const void* send, int count, Datatype dt, void* recv,
                 std::span<const int> recvcounts, std::span<const int> displs,
                 int root, const Comm& comm) {
  if (comm.IsNull()) throw UsageError("Igatherv: null communicator");
  if (root < 0 || root >= comm.Size()) throw UsageError("Igatherv: bad root");
  {
    sanitize::OpRecord rec =
        sanitize::MakeOp(sanitize::CollKind::kGatherv, root, /*tag=*/-1,
                         count, static_cast<std::uint32_t>(SizeOf(dt)));
    if (sanitize::Enabled() && comm.Rank() == root) {
      rec.counts_from.assign(recvcounts.begin(), recvcounts.end());
    }
    RecordNbc(comm, std::move(rec));
  }
  return Request(std::make_shared<detail::IgathervSM>(
      send, count, dt, recv, recvcounts, displs, root, comm,
      2 * comm.NextNbcTag()));
}

Request Ibarrier(const Comm& comm) {
  if (comm.IsNull()) throw UsageError("Ibarrier: null communicator");
  RecordNbc(comm, sanitize::MakeOp(sanitize::CollKind::kBarrier));
  return Request(
      std::make_shared<detail::IbarrierSM>(comm, detail::NextTagPair(comm)));
}

Request IsparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                         std::vector<SparseRecvMessage>* received,
                         const Comm& comm, std::int64_t segment_bytes) {
  if (comm.IsNull()) throw UsageError("IsparseAlltoallv: null communicator");
  RecordNbc(comm, sanitize::MakeOp(sanitize::CollKind::kSparseAlltoallv,
                                   /*root=*/-1, /*tag=*/-1, /*count=*/-1,
                                   static_cast<std::uint32_t>(SizeOf(dt)),
                                   segment_bytes));
  return Request(std::make_shared<detail::SparseAlltoallvSM>(
      sends, dt, received, comm, segment_bytes));
}

Request Ialltoall(const void* send, int count, Datatype dt, void* recv,
                  const Comm& comm) {
  if (comm.IsNull()) throw UsageError("Ialltoall: null communicator");
  if (count < 0) throw UsageError("Ialltoall: negative count");
  RecordNbc(comm, sanitize::MakeOp(sanitize::CollKind::kAlltoall,
                                   /*root=*/-1, /*tag=*/-1, count,
                                   static_cast<std::uint32_t>(SizeOf(dt))));
  const int p = comm.Size();
  std::vector<int> counts(static_cast<std::size_t>(p), count);
  std::vector<int> displs(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i * count;
  return Request(std::make_shared<detail::IalltoallvSM>(
      send, counts, displs, dt, recv, counts, displs, comm,
      2 * comm.NextNbcTag(), /*segment_bytes=*/0));
}

Request Ialltoallv(const void* send, std::span<const int> sendcounts,
                   std::span<const int> sdispls, Datatype dt, void* recv,
                   std::span<const int> recvcounts,
                   std::span<const int> rdispls, const Comm& comm,
                   std::int64_t segment_bytes) {
  if (comm.IsNull()) throw UsageError("Ialltoallv: null communicator");
  {
    sanitize::OpRecord rec =
        sanitize::MakeOp(sanitize::CollKind::kAlltoallv, /*root=*/-1,
                         /*tag=*/-1, /*count=*/-1,
                         static_cast<std::uint32_t>(SizeOf(dt)),
                         segment_bytes);
    if (sanitize::Enabled()) {
      rec.counts_to.assign(sendcounts.begin(), sendcounts.end());
      rec.counts_from.assign(recvcounts.begin(), recvcounts.end());
    }
    RecordNbc(comm, std::move(rec));
  }
  return Request(std::make_shared<detail::IalltoallvSM>(
      send, sendcounts, sdispls, dt, recv, recvcounts, rdispls, comm,
      2 * comm.NextNbcTag(), segment_bytes));
}

}  // namespace mpisim
