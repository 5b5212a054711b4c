// Group transport abstraction for the sorting algorithms.
//
// JQuick needs, per task group: nonblocking collectives, tagged
// point-to-point traffic with wildcard probes, and -- the axis of the
// paper's Figure 8 -- a way to split the group:
//  * RbcTransport     splits are rbc::Split_RBC_Comm -- local, O(1), no
//                     communication.
//  * MpiTransport     splits are blocking MPI_Comm_create_group calls with
//                     context-mask agreement and O(group) construction --
//                     the "native MPI" baseline of Figure 8.
//  * IcommTransport   splits are the Section-VI MPI_Icomm_create_group:
//                     local and O(1) for contiguous ranges, but with full
//                     MPI context isolation (an ablation beyond the paper's
//                     measured configurations).
//
// Sanitizer coverage: Transport adds no communication of its own -- every
// backend forwards to the mpisim or rbc collective entry points, so under
// MPISIM_SANITIZE=1 all transport traffic is checked transitively by the
// collective-correctness ledger (mpisim/sanitizer.hpp, rbc/sanitize.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "mpisim/mpisim.hpp"
#include "rbc/rbc.hpp"

namespace jsort {

/// Completion poll of a nonblocking operation: returns true once done;
/// repeated calls after completion remain true and cheap.
using Poll = std::function<bool()>;

using Datatype = mpisim::Datatype;
using ReduceOp = mpisim::ReduceOp;
using Status = mpisim::Status;

/// Sparse-exchange vocabulary, shared with the RBC collective: one
/// outgoing block per destination actually sent to, one delivery per
/// incoming message (raw payload bytes, tagged with the source rank).
using SparseBlock = rbc::SparseSendBlock;
using SparseDelivery = rbc::SparseRecvMessage;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Rank of the caller within this group (always a member).
  virtual int Rank() const = 0;
  virtual int Size() const = 0;

  /// World rank of group rank `r` -- the key for topology queries
  /// (mpisim::Runtime::NodeOf works on world ranks). Purely local.
  virtual int WorldRankOf(int r) const = 0;

  // Nonblocking collectives. `tag` disambiguates simultaneous operations
  // for transports without private contexts (RBC); context-isolated
  // transports may ignore it.
  virtual Poll Ibcast(void* buf, int count, Datatype dt, int root,
                      int tag) = 0;
  virtual Poll Iscan(const void* send, void* recv, int count, Datatype dt,
                     ReduceOp op, int tag) = 0;
  virtual Poll Ireduce(const void* send, void* recv, int count, Datatype dt,
                       ReduceOp op, int root, int tag) = 0;
  virtual Poll Igather(const void* send, int count, Datatype dt, void* recv,
                       int root, int tag) = 0;

  /// Personalized all-to-all with per-peer counts/displacements (elements;
  /// all four arrays sized Size() and significant on every rank). The
  /// count arrays are copied at call time; only the data buffers must stay
  /// alive until the Poll reports completion. Zero-count blocks are still
  /// exchanged, so with segment_bytes == 0 every backend moves exactly
  /// Size()-1 messages. With segment_bytes > 0 each per-peer block ships
  /// as pipelined segments of at most segment_bytes payload bytes (at
  /// least one element each) -- the large-message regime; the per-peer
  /// wire message count is mpisim::AlltoallvSegmentsOf on every backend.
  virtual Poll Ialltoallv(const void* send, std::span<const int> sendcounts,
                          std::span<const int> sdispls, Datatype dt,
                          void* recv, std::span<const int> recvcounts,
                          std::span<const int> rdispls, int tag,
                          std::int64_t segment_bytes = 0) = 0;

  /// Sparse (neighborhood) personalized exchange: only the listed blocks
  /// are transmitted -- no dense counts round, nothing for absent
  /// destinations. Collective over the group. The Poll completes once
  /// every incoming message of this operation has been appended to
  /// `*received`, ordered by source rank; termination is detected by the
  /// backend (two lightweight barriers), so receive counts need not be
  /// known anywhere. Send blocks are copied out at call time; `received`
  /// must stay alive until completion. As with the other collectives, the
  /// tag disambiguates simultaneous operations on overlapping RBC groups
  /// (back-to-back exchanges on one tag are safe -- the second barrier
  /// fences them); context-isolated transports may ignore it. With
  /// segment_bytes > 0 each per-destination payload ships chunked (at
  /// most segment_bytes wire bytes per message, chunk count =
  /// mpisim::SparseChunksOf) instead of as one unbounded eager message;
  /// receivers still get one delivery per source.
  virtual Poll IsparseAlltoallv(std::span<const SparseBlock> sends,
                                Datatype dt,
                                std::vector<SparseDelivery>* received,
                                int tag, std::int64_t segment_bytes = 0) = 0;

  // Point-to-point. Send is eager (completes locally); IprobeAny reports
  // only messages whose source belongs to this group.
  virtual void Send(const void* buf, int count, Datatype dt, int dest,
                    int tag) = 0;
  virtual bool IprobeAny(int tag, Status* st) = 0;
  virtual void Recv(void* buf, int count, Datatype dt, int src, int tag,
                    Status* st = nullptr) = 0;

  /// Creates the sub-group of ranks first..last. Collective over the
  /// subgroup members for MpiTransport (blocking) -- the caller must be a
  /// member. Local for RbcTransport/IcommTransport.
  virtual std::shared_ptr<Transport> Split(int first, int last) = 0;

  /// Human-readable backend name for benchmark output.
  virtual const char* Name() const = 0;
};

/// RBC-backed transport over an existing RBC communicator.
std::shared_ptr<Transport> MakeRbcTransport(rbc::Comm comm);

/// Native-MPI-backed transport (blocking MPI_Comm_create_group splits).
std::shared_ptr<Transport> MakeMpiTransport(mpisim::Comm comm);

/// Section-VI proposal transport (nonblocking tuple-context creation).
std::shared_ptr<Transport> MakeIcommTransport(mpisim::Comm comm);

/// Blocking allreduce over a Transport, composed from two collectives
/// every backend provides: Ireduce to group rank 0 on `tag`, then Ibcast
/// of the result on `tag + 1`. Both waits go through mpisim::WaitUntil.
/// `in` and `out` must not alias.
void Allreduce(Transport& tr, const void* in, void* out, int count,
               Datatype dt, ReduceOp op, int tag);

/// The three split-mechanics backends, as one selectable axis. Every
/// consumer that sweeps backends (benchmarks, the sort service, the
/// examples) goes through this factory, so the set has a single
/// definition.
enum class Backend { kRbc, kMpi, kIcomm };

/// Canonical lower-case backend label ("rbc", "mpi", "icomm"), as used in
/// BENCH_*.json rows and CLI arguments.
const char* BackendName(Backend b);

/// Parses a BackendName label; returns false on unknown input.
bool ParseBackend(std::string_view name, Backend* out);

/// Builds the world transport of `backend` over `world` (for kRbc this
/// creates the RBC communicator locally -- no communication on any
/// backend). Per-job/per-task groups then come from Transport::Split.
std::shared_ptr<Transport> MakeTransport(Backend backend,
                                         mpisim::Comm& world);

}  // namespace jsort
