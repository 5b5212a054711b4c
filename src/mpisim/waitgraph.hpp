// Vtime-aware deadlock forensics.
//
// Every blocking wait in the substrate registers a WaitRecord describing
// what the rank is blocked in (and, when the wait can only complete
// through an incoming message, the exact envelope patterns it is waiting
// for). Two consumers:
//
//  * Proactive detection. Rank threads are the only senders, so when all
//    p ranks are registered-blocked with fully *known* conjunctive
//    patterns and no queued mailbox message matches any of them, no
//    future progress is possible: the registering rank dumps the wait
//    graph and raises DeadlockError immediately -- milliseconds instead
//    of the wall-clock timeout. Polled waits -- mpisim::WaitUntil
//    (p2p.hpp), the one poll loop behind Wait/Waitall and every blocking
//    call above the substrate, and the service's wave barrier -- can
//    complete without receiving anything, so they register with
//    known=false and conservatively disable proactive detection while
//    they are blocked; the timeout path below still covers them.
//
//    Detection demands a deterministic proof before it fires: besides
//    every pattern being unsatisfiable, every other rank's waiter must be
//    *parked* inside its mailbox's condition-variable wait. The mailbox
//    clears the parked flag under its own lock before any blocking call
//    returns, so a rank whose wait just completed (message popped, guard
//    destructor not yet run) is never counted as stuck, no matter how
//    long it stays descheduled. A rank that is registered but not yet
//    parked gets a short grace period to reach the cv wait; if the proof
//    still does not close, the detector stands down and the wall-clock
//    timeout forensics below cover the deadlock instead.
//
//  * Timeout forensics. Every timeout path (blocking receive/probe,
//    WaitUntil, the service's out-of-band wave barrier) appends the same
//    per-rank wait graph -- who is blocked in what call, on which
//    source/tag/communicator, at what virtual time, with the pending
//    mailbox contents -- to its DeadlockError instead of the former bare
//    one-liner.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mpisim {

class Runtime;

/// One envelope pattern a blocked rank is waiting on. `src` may be
/// kAnySource and `tag` kAnyTag, exactly like a receive posting.
struct WaitPattern {
  std::uint64_t ctx = 0;
  int src = 0;
  int tag = 0;
};

/// What one rank is blocked in. Patterns are conjunctive: the wait can
/// complete only once every listed pattern has a matching queued message.
/// known=false marks waits that may complete without any new message
/// (WaitUntil polls); their patterns, if any, are informational only.
struct WaitRecord {
  std::string what;
  std::vector<WaitPattern> patterns;
  bool known = false;
  double vtime = 0.0;
};

/// Builder; vtime is stamped by ScopedWait at registration.
inline WaitRecord MakeWait(std::string what,
                           std::vector<WaitPattern> patterns = {},
                           bool known = false) {
  WaitRecord r;
  r.what = std::move(what);
  r.patterns = std::move(patterns);
  r.known = known;
  return r;
}

/// Per-runtime registry of blocked ranks. Registration is cheap (one
/// mutex round trip) and only happens on the slow path, after a
/// non-blocking first attempt failed.
class WaitRegistry {
 public:
  explicit WaitRegistry(Runtime* rt) : rt_(rt) {}

  /// Registers the calling rank as blocked; nested blocking calls stack.
  /// May throw DeadlockError (with the full wait-graph report) when this
  /// registration completes a provable deadlock.
  void Register(int rank, WaitRecord rec);
  void Unregister(int rank);

  /// Drops all records (a fresh Runtime::Run).
  void Reset();

  /// Formats the per-rank wait set (no header, no mailbox contents);
  /// BuildDeadlockReport composes the full report. Takes mu_; rank
  /// threads may still be registering/unregistering concurrently.
  std::string DescribeWaits();

 private:
  std::string DescribeWaitsLocked();

  /// True iff all p ranks are blocked with known patterns and at least
  /// one pattern per rank has no matching queued message. Caller holds
  /// mu_.
  bool AllWaitsUnsatisfiableLocked();

  /// True iff every rank except `self` is parked inside its mailbox's cv
  /// wait (the deterministic half of the deadlock proof). Caller holds
  /// mu_.
  bool AllPeersParkedLocked(int self);

  Runtime* rt_;
  std::mutex mu_;
  std::vector<std::vector<WaitRecord>> stacks_;  // per rank, nested waits
  int blocked_ranks_ = 0;
};

/// RAII registration guard; a no-op outside rank threads.
class ScopedWait {
 public:
  explicit ScopedWait(WaitRecord rec);
  ~ScopedWait();
  ScopedWait(const ScopedWait&) = delete;
  ScopedWait& operator=(const ScopedWait&) = delete;

 private:
  WaitRegistry* registry_ = nullptr;
  int rank_ = -1;
};

/// Assembles the full deadlock report: `header`, then one block per rank
/// with its blocked call, wait patterns, virtual time, and pending
/// mailbox envelopes.
std::string BuildDeadlockReport(Runtime& rt, const std::string& header);

/// Same, from an already-formatted wait section (used by the proactive
/// detector, which snapshots the wait set while holding the registry
/// lock).
std::string BuildDeadlockReportFromWaits(Runtime& rt,
                                         const std::string& header,
                                         const std::string& waits);

}  // namespace mpisim
