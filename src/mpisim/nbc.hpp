// Nonblocking collective operations (MPI-3 style): the ones the MPI
// transports (sort/transport.hpp) start.
//
// Every operation starts one state machine of the collective-schedule core
// (mpisim/schedule.hpp) -- the schedules the blocking collectives and the
// RBC library run too -- and returns it as a Request. Progress happens
// inside Test/Wait calls; there is no progress thread. The tree
// collectives pass the binomial tree rooted at `root` (IsparseAlltoallv's
// fences: at rank 0), a topology-oblivious MPI's tree.
//
// Tags follow the scheme the paper describes (Section III): every
// nonblocking collective draws the next value t from the communicator's
// tag counter, which stays synchronous across ranks because all ranks
// invoke nonblocking collectives on a communicator in the same order, and
// runs on tag 2t of the dedicated kNbc sub-channel. IsparseAlltoallv
// sends payloads on 2t and trailing chunks on 2t + 1, and draws two more
// values per fence, whose reduce runs on the first's even tag and whose
// broadcast on the odd one after it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"

namespace mpisim {

/// Nonblocking binomial-tree broadcast.
Request Ibcast(void* buf, int count, Datatype dt, int root, const Comm& comm);

/// Nonblocking binomial-tree reduction to `root` (commutative ops).
Request Ireduce(const void* send, void* recv, int count, Datatype dt,
                ReduceOp op, int root, const Comm& comm);

/// Nonblocking inclusive prefix reduction (distance doubling).
Request Iscan(const void* send, void* recv, int count, Datatype dt,
              ReduceOp op, const Comm& comm);

/// Nonblocking gather with uniform block size.
Request Igather(const void* send, int count, Datatype dt, void* recv,
                int root, const Comm& comm);

// ---------------------------------------------------------------------------
// Large-message segmentation. A real transport switches from eager to
// rendezvous delivery past a threshold; the segmented exchange paths keep
// every single message at or below `segment_bytes` payload bytes by
// splitting each per-peer block into pipelined segments. The arithmetic is
// shared between the substrate, the RBC collectives and the exchange layer
// so that callers can predict wire message counts exactly.
// ---------------------------------------------------------------------------

/// Wire messages of one Alltoallv block of `count` elements under a
/// segment limit of `segment_bytes` (0 or negative = unlimited). A
/// zero-count block still costs one (empty) message -- MPI semantics --
/// and every segment carries at least one element, so the bound on a
/// single message is max(segment_bytes, esize).
inline std::int64_t AlltoallvSegmentsOf(std::int64_t count, std::size_t esize,
                                        std::int64_t segment_bytes) {
  if (segment_bytes <= 0 || count <= 0) return 1;
  const std::int64_t per = std::max<std::int64_t>(
      1, segment_bytes / static_cast<std::int64_t>(esize));
  return (count + per - 1) / per;
}

/// Offset and length (elements) of segment `s` of a block of `count`
/// elements -- the inverse of AlltoallvSegmentsOf, shared by every
/// segmenting sender/receiver so their walks can never diverge.
inline std::pair<std::int64_t, std::int64_t> AlltoallvSegmentRange(
    std::int64_t count, std::size_t esize, std::int64_t segment_bytes,
    std::int64_t s) {
  if (segment_bytes <= 0) return {0, count};
  const std::int64_t per = std::max<std::int64_t>(
      1, segment_bytes / static_cast<std::int64_t>(esize));
  const std::int64_t off = s * per;
  return {off,
          std::min<std::int64_t>(per, std::max<std::int64_t>(count - off, 0))};
}

/// Header prefix of every sparse payload message: the first chunk of a
/// destination's payload carries the total payload byte count, trailing
/// chunks carry their 1-based sequence number.
inline constexpr std::int64_t kSparseChunkHeaderBytes = 8;

/// Payload bytes one sparse chunk may carry under a segment limit. The
/// capacity never drops below one machine word, so a single message is
/// bounded by max(segment_bytes, kSparseChunkHeaderBytes + 8).
inline std::int64_t SparseChunkCapacity(std::int64_t segment_bytes) {
  return std::max<std::int64_t>(segment_bytes - kSparseChunkHeaderBytes, 8);
}

/// Wire messages (chunks) of one sparse payload of `payload_bytes` under a
/// segment limit of `segment_bytes` (0 or negative = unlimited: one
/// message, still header-prefixed).
inline std::int64_t SparseChunksOf(std::int64_t payload_bytes,
                                   std::int64_t segment_bytes) {
  if (segment_bytes <= 0) return 1;
  const std::int64_t cap = SparseChunkCapacity(segment_bytes);
  return std::max<std::int64_t>(1, (payload_bytes + cap - 1) / cap);
}

/// Nonblocking personalized all-to-all with per-peer counts/displacements
/// (elements; all four arrays must hold Size() entries, UsageError
/// otherwise, and are significant on every rank). The count arrays are
/// copied at call time; only the data buffers must stay alive until
/// completion. All sends are injected at the call; the receives are taken
/// one at a time from rank - 1, rank - 2, ..., so the clocks are blocking
/// Alltoallv's and never depend on arrival order. With segment_bytes > 0
/// every per-peer block is split into pipelined segments of at most
/// segment_bytes payload bytes (at least one element each); per-envelope
/// FIFO order sequences them, so the wire format needs no headers.
Request Ialltoallv(const void* send, std::span<const int> sendcounts,
                   std::span<const int> sdispls, Datatype dt, void* recv,
                   std::span<const int> recvcounts,
                   std::span<const int> rdispls, const Comm& comm,
                   std::int64_t segment_bytes = 0);

/// One outgoing block of a sparse personalized exchange: `count` elements
/// of the operation's datatype to rank `dest`.
struct SparseSendBlock {
  int dest = 0;
  const void* data = nullptr;
  int count = 0;
};

/// One incoming message of a sparse personalized exchange: the raw payload
/// bytes a rank sent to the caller.
struct SparseRecvMessage {
  int source = 0;
  std::vector<std::byte> bytes;
};

/// Nonblocking sparse (neighborhood) personalized all-to-all in the spirit
/// of the NBX algorithm (Hoefler, Siebert, Lumsdaine: "Scalable
/// communication protocols for dynamic sparse data exchange"), adapted to
/// the substrate's eager sends: each rank passes only the destinations it
/// actually sends to -- no dense counts round, nothing for absent
/// destinations. Receivers discover their senders by probing; two
/// lightweight barriers detect termination (eager sends deposit a payload
/// before the sender enters the first, so its completion bounds the
/// messages still owed; the second fences the operation against a
/// back-to-back successor). `*received` is appended with every incoming
/// message, ordered by source rank; a block with dest == Rank() is
/// delivered locally. Send blocks are copied out at call time.
///
/// Payloads ship chunked: the first chunk (payload tag) is [int64 total
/// payload bytes][payload...]; with segment_bytes > 0 a larger payload
/// continues as trailing chunks [int64 seq][payload...] on the chunk tag,
/// sequenced 1, 2, ... per destination (SparseChunksOf) and sent *before*
/// the first chunk, so a receiver that probed it pulls the rest at once
/// and chunked payloads look one-shot to the caller.
Request IsparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                         std::vector<SparseRecvMessage>* received,
                         const Comm& comm, std::int64_t segment_bytes = 0);

}  // namespace mpisim
