// The runtime: spawns p ranks as threads, owns their mailboxes, clocks and
// context-mask state, and provides the world communicator.
#pragma once

#include <atomic>
#include <bitset>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <unordered_map>
#include <vector>

#include "mpisim/clock.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/error.hpp"
#include "mpisim/mailbox.hpp"
#include "mpisim/sanitizer.hpp"
#include "mpisim/waitgraph.hpp"
#include "topo/topology.hpp"

namespace mpisim {

/// Vendor profile for the communicator-creation substitution (DESIGN.md §2).
/// kFast models an implementation whose MPI_Comm_create_group agrees on a
/// context id with a binomial-tree all-reduce over context masks (a la
/// Intel/MPICH); kSlowCreateGroup models one that serializes the agreement
/// around a ring (reproducing the disproportionately slow IBM
/// MPI_Comm_create_group of the paper's Figure 5).
enum class VendorProfile {
  kFast,
  kSlowCreateGroup,
};

/// Per-rank state. Owned by the runtime, accessed by exactly one thread.
struct RankContext {
  class Runtime* runtime = nullptr;
  int world_rank = -1;
  int world_size = 0;
  VirtualClock clock;
  Stats stats;
  std::mt19937_64 rng;
  /// Bit i set <=> mask context id i is in use at this rank.
  std::bitset<kMaxMaskContexts> ctx_mask;
  /// Counter `b` of the Section-VI tuple scheme.
  std::uint32_t icomm_counter = 0;
  /// Collective-sanitizer nesting depth; composite collectives record only
  /// their outermost public entry (sanitizer.hpp).
  int sanitize_depth = 0;
};

class Runtime {
 public:
  struct Options {
    int num_ranks = 1;
    CostModel cost{};
    VendorProfile profile = VendorProfile::kFast;
    std::uint64_t seed = 0x5EEDu;
    /// Blocking operations throw DeadlockError after this long. Overridable
    /// via MPISIM_DEADLOCK_TIMEOUT_MS.
    std::chrono::milliseconds deadlock_timeout{60'000};
    /// Records and cross-checks every collective's envelope per communicator
    /// group; mismatches raise CollectiveMismatchError (sanitizer.hpp).
    /// Overridable via MPISIM_SANITIZE=1 / MPISIM_SANITIZE=0.
    bool sanitize_collectives = false;
    /// Node structure of the machine (topology.hpp). Empty = flat. Must
    /// cover exactly num_ranks ranks when non-empty; consulted by the
    /// cost seams (two-level CostModel) and the inter-node traffic
    /// counters, and queryable by algorithms via NodeOf/SameNode.
    topo::Topology topology{};
  };

  explicit Runtime(Options options);

  /// Runs `rank_main(world)` on every rank, each in its own thread, and
  /// joins them. If any rank throws, all blocked ranks are aborted and the
  /// first exception is re-thrown here. May be called multiple times; the
  /// context masks, clocks and counters persist between calls.
  void Run(const std::function<void(Comm&)>& rank_main);

  /// Convenience: default options with p ranks.
  static void Exec(int p, const std::function<void(Comm&)>& rank_main);

  Mailbox& MailboxOf(int world_rank);
  RankContext& ContextOf(int world_rank);
  const Options& options() const { return options_; }

  /// Interns a Section-VI tuple context id into a dense base id (stable:
  /// the same tuple always maps to the same id). Thread-safe.
  std::uint64_t InternTuple(const TupleCtx& t);

  /// True once any rank failed; WaitUntil (p2p.hpp), the one polled wait,
  /// checks this between polls so it terminates instead of waiting for
  /// messages that will never arrive.
  bool Aborted() const { return aborted_.load(std::memory_order_acquire); }
  /// `origin_rank` (when known) is the world rank whose failure started the
  /// abort; the first caller wins, so forensics name the true origin. The
  /// origin is published before the flag, so a waiter that sees Aborted()
  /// also sees FirstFailedRank().
  void MarkAborted(int origin_rank = -1) {
    if (origin_rank >= 0) {
      int expected = -1;
      first_failed_rank_.compare_exchange_strong(expected, origin_rank,
                                                 std::memory_order_relaxed);
    }
    aborted_.store(true, std::memory_order_release);
  }
  /// World rank whose failure aborted the run, or -1 when unknown.
  int FirstFailedRank() const {
    return first_failed_rank_.load(std::memory_order_relaxed);
  }

  /// Collective-correctness ledger (active when sanitize_collectives).
  sanitize::Registry& Sanitizer() { return sanitizer_; }
  /// Blocked-rank registry feeding deadlock detection and forensics.
  WaitRegistry& Waits() { return waits_; }

  /// Node of a world rank under the installed topology (0 when flat).
  /// O(1): precomputed at construction.
  int NodeOf(int world_rank) const { return node_of_[world_rank]; }
  /// True when both world ranks live on the same node (always true on a
  /// flat topology).
  bool SameNode(int a, int b) const { return node_of_[a] == node_of_[b]; }

  /// Maximum virtual time over all ranks (call after Run).
  double MaxVirtualTime() const;
  /// Resets all rank clocks and traffic counters (between benchmark reps).
  void ResetClocksAndStats();
  /// Sum of all ranks' traffic counters (call after Run).
  Stats TotalStats() const;

 private:
  Options options_;
  std::vector<int> node_of_;  // world rank -> node id (precomputed)
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<RankContext>> contexts_;
  std::atomic<bool> aborted_{false};
  std::atomic<int> first_failed_rank_{-1};
  sanitize::Registry sanitizer_;
  WaitRegistry waits_{this};
  std::mutex registry_mu_;
  std::unordered_map<TupleCtx, std::uint64_t, TupleCtxHash> tuple_registry_;
  std::uint64_t next_tuple_base_ = kMaxMaskContexts;
};

/// Context of the calling rank thread. Throws UsageError when called from
/// outside Runtime::Run.
RankContext& Ctx();

/// True when the calling thread is a rank thread.
bool InsideRank();

/// Spelling used by docs and tests for the runtime's option block.
using RuntimeConfig = Runtime::Options;

}  // namespace mpisim
