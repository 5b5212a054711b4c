// Point-to-point operations: Send/Recv, Isend/Irecv, Probe/Iprobe,
// Test/Wait/Testall/Waitall, and WaitUntil -- the one polled wait every
// blocking call above the substrate goes through.
//
// The substrate uses an eager protocol: sends buffer the payload into the
// destination mailbox and complete immediately. This mirrors the
// small-message behaviour of real MPIs and keeps the simulated algorithms
// deadlock-free under buffered-send assumptions; the alpha-beta virtual
// clock still charges full single-ported costs on both endpoints.
#pragma once

#include <functional>
#include <span>
#include <string_view>

#include "mpisim/comm.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"
#include "mpisim/status.hpp"

namespace mpisim {

/// Blocking standard send of count elements of dt to `dest` (comm rank).
void Send(const void* buf, int count, Datatype dt, int dest, int tag,
          const Comm& comm);

/// Blocking receive from `src` (comm rank or kAnySource). Throws
/// UsageError if the matched message is longer than the receive buffer.
void Recv(void* buf, int count, Datatype dt, int src, int tag,
          const Comm& comm, Status* st = nullptr);

/// Nonblocking send; completes immediately (eager protocol) but still
/// returns a request for uniform Waitall handling.
Request Isend(const void* buf, int count, Datatype dt, int dest, int tag,
              const Comm& comm);

/// Nonblocking receive; progressed by Test/Wait.
Request Irecv(void* buf, int count, Datatype dt, int src, int tag,
              const Comm& comm);

/// Blocking probe: waits until a message matching (src, tag) is available
/// on `comm` and describes it in `st` without receiving it.
void Probe(int src, int tag, const Comm& comm, Status* st);

/// Nonblocking probe; returns true and fills st if a matching message is
/// pending.
bool Iprobe(int src, int tag, const Comm& comm, Status* st = nullptr);

/// Tests a request for completion (progresses it).
bool Test(Request& req, Status* st = nullptr);

/// Blocks until the request completes (WaitUntil on Test, label "Wait").
void Wait(Request& req, Status* st = nullptr);

/// Tests all requests; true iff every one is complete.
bool Testall(std::span<Request> reqs);

/// Waits for all requests to complete (WaitUntil, label "Waitall").
void Waitall(std::span<Request> reqs);

/// Calls `poll` until it returns true -- the blocking form of every
/// nonblocking operation, in every layer. Returns at once, unregistered,
/// when the first poll succeeds. Otherwise registers a known=false wait
/// record named `what` (waitgraph.hpp) and yields between polls; throws
/// AbortedError naming the failed rank once any rank of the run failed,
/// and DeadlockError carrying the wait-graph report after the runtime's
/// deadlock_timeout. Must run on a rank thread.
void WaitUntil(const std::function<bool()>& poll, std::string_view what);

namespace detail {

/// Channel-addressed variants used by collectives and communicator
/// construction protocols. Not part of the public user API.
void SendOnChannel(const void* buf, int count, Datatype dt, int dest, int tag,
                   const Comm& comm, Channel ch);
void RecvOnChannel(void* buf, int count, Datatype dt, int src, int tag,
                   const Comm& comm, Channel ch, Status* st = nullptr);
Request IsendOnChannel(const void* buf, int count, Datatype dt, int dest,
                       int tag, const Comm& comm, Channel ch);
Request IrecvOnChannel(void* buf, int count, Datatype dt, int src, int tag,
                       const Comm& comm, Channel ch);
bool IprobeOnChannel(int src, int tag, const Comm& comm, Channel ch,
                     Status* st);
void ProbeOnChannel(int src, int tag, const Comm& comm, Channel ch,
                    Status* st);

}  // namespace detail

}  // namespace mpisim
