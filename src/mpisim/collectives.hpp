// Blocking collective operations.
//
// Each one runs the nonblocking schedule of the collective-schedule core
// (mpisim/schedule.hpp) to completion, so it leaves exactly the clocks and
// traffic of its nonblocking twin. Traffic runs on the communicator's kColl
// sub-channel with fixed internal tags, so it can never interfere with user
// point-to-point traffic -- the context-id guarantee of Section III. The
// tree collectives pass the binomial tree rooted at `root` (Barrier,
// Allreduce and Allgather: at rank 0), optimal in the alpha term for short
// vectors (Section V-D); Scan uses distance-doubling (Hillis-Steele)
// rounds, one tag per round; Alltoall(v) the spread-out schedule.
//
// Reductions assume commutative operators (all ReduceOp values are).
// Unless stated otherwise, send and receive buffers must not alias.
#pragma once

#include <span>

#include "mpisim/comm.hpp"
#include "mpisim/datatype.hpp"

namespace mpisim {

/// Synchronizes all ranks of `comm` (binomial reduce + broadcast of an
/// empty message).
void Barrier(const Comm& comm);

/// Broadcasts count elements from `root` to every rank.
void Bcast(void* buf, int count, Datatype dt, int root, const Comm& comm);

/// Reduces element-wise into `recv` on `root`. `recv` may be null on
/// non-root ranks. `send` may equal `recv` on the root.
void Reduce(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
            int root, const Comm& comm);

/// Reduce to rank 0 followed by broadcast.
void Allreduce(const void* send, void* recv, int count, Datatype dt,
               ReduceOp op, const Comm& comm);

/// Inclusive prefix reduction: recv on rank r = op-fold of sends 0..r.
void Scan(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
          const Comm& comm);

/// Exclusive prefix reduction: recv on rank r = op-fold of sends 0..r-1.
/// On rank 0 the output is zero-filled (defined, unlike MPI_Exscan).
void Exscan(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
            const Comm& comm);

/// Gathers count elements from every rank into `recv` on root, ordered by
/// rank. `recv` must hold Size()*count elements on the root.
void Gather(const void* send, int count, Datatype dt, void* recv, int root,
            const Comm& comm);

/// Gathers count_r elements from rank r into recv at displs[r] on the
/// root. recvcounts/displs are significant on the root only (sizes in
/// elements) and must hold Size() entries there (UsageError otherwise).
void Gatherv(const void* send, int count, Datatype dt, void* recv,
             std::span<const int> recvcounts, std::span<const int> displs,
             int root, const Comm& comm);

/// Gather to rank 0 + broadcast. `recv` holds Size()*count elements.
void Allgather(const void* send, int count, Datatype dt, void* recv,
               const Comm& comm);

/// Scatters Size() consecutive blocks of `count` elements from the root's
/// `send` buffer (significant at root only) down a binomial tree.
void Scatter(const void* send, int count, Datatype dt, void* recv, int root,
             const Comm& comm);

/// Personalized all-to-all with uniform block size `count`.
void Alltoall(const void* send, int count, Datatype dt, void* recv,
              const Comm& comm);

/// Personalized all-to-all with per-peer counts/displacements (elements);
/// all four arrays must hold Size() entries (UsageError otherwise).
void Alltoallv(const void* send, std::span<const int> sendcounts,
               std::span<const int> sdispls, Datatype dt, void* recv,
               std::span<const int> recvcounts, std::span<const int> rdispls,
               const Comm& comm);

}  // namespace mpisim
