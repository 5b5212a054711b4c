// Blocking collective operations.
//
// Each one runs the nonblocking schedule of the collective-schedule core
// (mpisim/schedule.hpp) to completion, so it leaves exactly the clocks and
// traffic its nonblocking form would. Traffic runs on the communicator's
// kColl sub-channel with fixed internal tags, so it can never interfere
// with user point-to-point traffic -- the context-id guarantee of Section
// III. The tree collectives pass the binomial tree rooted at `root`
// (Barrier, Allreduce and Allgather: at rank 0), optimal in the alpha term
// for short vectors (Section V-D); Alltoallv the spread-out schedule.
// These five are the ones the communicator constructors, the examples and
// the benchmarks' MPI baselines call; the MPI transports run the
// nonblocking forms (mpisim/nbc.hpp).
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

/// Reduce to rank 0 followed by broadcast.
void Allreduce(const void* send, void* recv, int count, Datatype dt,
               ReduceOp op, const Comm& comm);

/// Gather to rank 0 + broadcast. `recv` holds Size()*count elements.
void Allgather(const void* send, int count, Datatype dt, void* recv,
               const Comm& comm);

/// Personalized all-to-all with per-peer counts/displacements (elements);
/// all four arrays must hold Size() entries (UsageError otherwise).
void Alltoallv(const void* send, std::span<const int> sendcounts,
               std::span<const int> sdispls, Datatype dt, void* recv,
               std::span<const int> recvcounts, std::span<const int> rdispls,
               const Comm& comm);

}  // namespace mpisim
