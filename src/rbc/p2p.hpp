// RBC point-to-point operations (Section V-C, Figure 2 of the paper).
//
// Operations with a specific peer rank translate the RBC rank to the
// underlying MPI rank and forward to MPI. Wildcard (kAnySource)
// operations are where RBC earns its keep: a wildcard probe may match a
// message that belongs to a *different* RBC communicator over the same MPI
// communicator, so RBC checks whether the source is a member of the range
// and reports "no message" otherwise. This guarantees that communication
// on two RBC communicators never interferes as long as they overlap in at
// most one process.
#pragma once

#include "rbc/comm.hpp"
#include "rbc/request.hpp"

namespace rbc {

/// Blocking send to RBC rank `dest`. User tags must be < kReservedTagBase.
int Send(const void* buf, int count, Datatype dt, int dest, int tag,
         const Comm& comm);

/// Blocking receive from RBC rank `src` or kAnySource. The wildcard form
/// first probes (membership-filtered) to learn the source, then receives
/// from that specific rank (Section V-C "Receiving").
int Recv(void* buf, int count, Datatype dt, int src, int tag,
         const Comm& comm, Status* st = nullptr);

/// Nonblocking send; `*request` completes once the message is handed to
/// the transport (eager).
int Isend(const void* buf, int count, Datatype dt, int dest, int tag,
          const Comm& comm, Request* request);

/// Nonblocking receive. With kAnySource the returned request keeps
/// searching for an incoming member message on every Test (Section V-C).
int Irecv(void* buf, int count, Datatype dt, int src, int tag,
          const Comm& comm, Request* request);

/// Blocking probe; with kAnySource repeatedly calls Iprobe until a member
/// message is found.
int Probe(int src, int tag, const Comm& comm, Status* st);

/// Nonblocking probe; sets *flag to 1 iff a matching message from a member
/// of this RBC communicator is ready. A pending message from a non-member
/// yields *flag == 0.
int Iprobe(int src, int tag, const Comm& comm, int* flag,
           Status* st = nullptr);

namespace detail {

/// Internal variants used by the RBC collectives: identical semantics but
/// reserved tags allowed. Sources/destinations are RBC ranks.
void SendInternal(const void* buf, int count, Datatype dt, int dest, int tag,
                  const Comm& comm);
void RecvInternal(void* buf, int count, Datatype dt, int src, int tag,
                  const Comm& comm, Status* st = nullptr);
Request IsendInternal(const void* buf, int count, Datatype dt, int dest,
                      int tag, const Comm& comm);
Request IrecvInternal(void* buf, int count, Datatype dt, int src, int tag,
                      const Comm& comm);
bool IprobeInternal(int src, int tag, const Comm& comm, Status* st);
void ProbeInternal(int src, int tag, const Comm& comm, Status* st);

}  // namespace detail

}  // namespace rbc
