// rbc::SparseAlltoallv -- sparse (neighborhood) personalized exchange over
// an RBC range, in the spirit of the NBX algorithm (Hoefler, Siebert,
// Lumsdaine: "Scalable communication protocols for dynamic sparse data
// exchange") adapted to the substrate's eager sends.
//
// Phase A: post the chunked payload of every listed destination (the
//   substrate deposits each chunk into the destination mailbox before the
//   call returns), then enter barrier A, draining membership-filtered
//   probes while it completes.
// Phase B: barrier A complete means every member has posted all its sends,
//   so every message owed to the caller already sits in the mailbox. Drain
//   it with the wildcard probe, then member by member with source-specific
//   probes, then enter barrier B. The wildcard probe alone cannot end this
//   drain: when two ranges overlap in one rank and run sparse exchanges on
//   the same tag, a message of the other range at the head of the queue
//   makes the membership-filtered wildcard probe report "no message"
//   (Section V-C) while messages of this range still wait behind it. A
//   source-specific probe is never blocked by another range's message.
//   The wildcard pass goes first so that, without an overlap, messages are
//   received in arrival order as in phase A; a sweep in source order would
//   charge the single-ported receiver for a late message before earlier
//   ones.
// Phase C: barrier B fences the operation against its successor -- a
//   member may post sends of a *following* sparse exchange on the same tag
//   only after every rank finished draining this one, so the final drain
//   of phase B can never steal them. The fence covers trailing payload
//   chunks too: they are consumed by the drain that received their first
//   chunk, strictly before this rank enters barrier B.
//
// Payload wire format (shared with mpisim::IsparseAlltoallv): the first
// chunk, on the exchange's payload tag, is [int64 total payload bytes]
// [payload...]; with a segment limit, payloads larger than one chunk
// continue on the exchange's *chunk tag* as [int64 seq][payload...],
// sequenced 1, 2, ... per destination and injected *before* their header
// chunk. A receiver that probes a header chunk therefore pulls the
// sender's trailing chunks without ever waiting -- so a skewed
// destination never buffers its whole payload in one message, yet the
// caller still sees exactly one delivery per source and the request's
// Test stays nonblocking.
//
// Message budget per rank: SparseChunksOf(payload) messages per non-empty
// destination plus two barrier traversals (O(log p) tokens), with no
// dense counts round at all.
#include <algorithm>

#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

/// Barrier tags derived from the payload tag, in a reserved region far
/// above the collective-tag maps of the library's users: two distinct
/// sparse exchanges (distinct payload tags) never share barrier envelopes.
constexpr int kSparseBarrierBase = kReservedTagBase + (1 << 22);

/// Trailing-chunk tags, one per payload tag, in their own reserved region:
/// simultaneous sparse exchanges on distinct tags keep their chunk
/// sequences apart, and chunk traffic never collides with barrier tokens
/// or first chunks.
constexpr int kSparseChunkBase = kReservedTagBase + (1 << 23);

class SparseAlltoallvSM final : public RequestImpl {
 public:
  SparseAlltoallvSM(std::span<const SparseSendBlock> sends, Datatype dt,
                    std::vector<SparseRecvMessage>* received, Comm comm,
                    int tag, std::int64_t segment_bytes)
      : dt_(dt), received_(received), comm_(std::move(comm)), tag_(tag) {
    if (received_ == nullptr) {
      throw mpisim::UsageError("rbc::SparseAlltoallv: null receive vector");
    }
    first_incoming_ = received_->size();
    const int p = comm_.Size();
    for (const SparseSendBlock& b : sends) {
      if (b.dest < 0 || b.dest >= p) {
        throw mpisim::UsageError("rbc::SparseAlltoallv: destination out of "
                                 "range");
      }
      if (b.count < 0) {
        throw mpisim::UsageError("rbc::SparseAlltoallv: negative count");
      }
      if (b.dest == comm_.Rank()) {
        // Self block: local delivery, no message.
        const auto* bytes = static_cast<const std::byte*>(b.data);
        received_->push_back(SparseRecvMessage{
            b.dest, std::vector<std::byte>(
                        bytes, bytes + ByteCount(b.count, dt_))});
      } else {
        mpisim::detail::SendChunkedSparse(
            static_cast<const std::byte*>(b.data),
            static_cast<std::int64_t>(ByteCount(b.count, dt_)),
            segment_bytes,
            [&](const std::vector<std::byte>& msg, bool first) {
              SendInternal(msg.data(), static_cast<int>(msg.size()),
                           Datatype::kByte, b.dest,
                           first ? tag_ : kSparseChunkBase + tag_, comm_);
            });
      }
    }
    barrier_ = Request(MakeBarrierSM(comm_, kSparseBarrierBase + 2 * tag_));
  }

  bool Test(Status*) override {
    if (phase_ == 0) {
      Drain();
      if (!barrier_.Poll()) return false;
      // Every member has posted its sends (entered barrier A after them),
      // and eager deposit makes them all visible. The wildcard drain takes
      // them in arrival order but stops at another range's message; the
      // per-source sweep collects whatever waits behind it.
      Drain();
      for (int src = 0; src < comm_.Size(); ++src) {
        if (src != comm_.Rank()) Drain(src);
      }
      std::stable_sort(received_->begin() + static_cast<std::ptrdiff_t>(
                                                first_incoming_),
                       received_->end(),
                       [](const SparseRecvMessage& a,
                          const SparseRecvMessage& b) {
                         return a.source < b.source;
                       });
      // Test() runs outside the public entry's sanitizer scope; the
      // factory keeps this internal fence out of the collective ledger.
      barrier_ =
          Request(MakeBarrierSM(comm_, kSparseBarrierBase + 2 * tag_ + 1));
      phase_ = 1;
    }
    return barrier_.Poll();
  }

 private:
  /// Receives every message from `src` (kAnySource: from any member, up
  /// to the first probe miss) that is already queued on the payload tag.
  void Drain(int src = kAnySource) {
    Status st;
    while (IprobeInternal(src, tag_, comm_, &st)) {
      std::vector<std::byte> first(st.bytes);
      RecvInternal(first.data(), static_cast<int>(st.bytes),
                   Datatype::kByte, st.source, tag_, comm_);
      SparseRecvMessage msg;
      msg.source = st.source;
      // Trailing chunks were deposited *before* their header chunk (see
      // SendChunkedSparse), so these receives complete without waiting
      // and Test stays nonblocking.
      msg.bytes = mpisim::detail::ReassembleChunkedSparse(
          first, [&](std::int64_t) {
            Status cst;
            ProbeInternal(st.source, kSparseChunkBase + tag_, comm_, &cst);
            std::vector<std::byte> chunk(cst.bytes);
            RecvInternal(chunk.data(), static_cast<int>(cst.bytes),
                         Datatype::kByte, st.source,
                         kSparseChunkBase + tag_, comm_);
            return chunk;
          });
      received_->push_back(std::move(msg));
    }
  }

  Datatype dt_;
  std::vector<SparseRecvMessage>* received_;
  Comm comm_;
  int tag_;
  std::size_t first_incoming_ = 0;
  Request barrier_;
  int phase_ = 0;
};

}  // namespace
}  // namespace detail

int SparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                    std::vector<SparseRecvMessage>* received,
                    const Comm& comm, int tag, std::int64_t segment_bytes) {
  detail::ValidateCollective(comm, 0, "SparseAlltoallv");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kSparseAlltoallv,
                             /*root=*/-1, tag, /*count=*/-1,
                             mpisim::SizeOf(dt), segment_bytes));
  detail::RunToCompletion(
      std::make_shared<detail::SparseAlltoallvSM>(sends, dt, received, comm,
                                                  tag, segment_bytes),
      "SparseAlltoallv");
  return 0;
}

int IsparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                     std::vector<SparseRecvMessage>* received,
                     const Comm& comm, Request* request, int tag,
                     std::int64_t segment_bytes) {
  detail::ValidateCollective(comm, 0, "IsparseAlltoallv");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::IsparseAlltoallv: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kSparseAlltoallv,
                              /*root=*/-1, tag, /*count=*/-1,
                              mpisim::SizeOf(dt), segment_bytes);
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(std::make_shared<detail::SparseAlltoallvSM>(
      sends, dt, received, comm, tag, segment_bytes));
  return 0;
}

}  // namespace rbc
