// Collective-correctness sanitizer (RuntimeConfig::sanitize_collectives,
// env override MPISIM_SANITIZE=1).
//
// Design notes
// ------------
// We hand-schedule collectives over reserved tag ranges on three backends
// (rbc hypercube/1-factor schedules, mpisim NBC state machines, icomm).
// A mismatched collective -- wrong root, a rank skipping a fence, a
// truncated alltoallv payload -- surfaces as a deadlock timeout or silent
// corruption. Following the dynamic half of PARCOACH-style MPI
// collective-matching verification, the sanitizer records, per
// communicator *group*, the sequence of collective operations each rank
// issues and cross-checks every new entry rank-against-rank at the same
// sequence number. The first divergence raises CollectiveMismatchError
// naming both world ranks, the divergent sequence number, and the last
// few matching operations.
//
// What one record carries and what is checked at each sequence number:
//  * op kind, blocking/nonblocking flavor, root, logical tag, uniform
//    element count, datatype size, segment limit, and IscanWithTotal's
//    rider block (count and element size) must agree between every pair
//    of members;
//  * vector counts are checked pairwise, not just for equality: for
//    Alltoallv, rank i's sendcounts[j] must equal rank j's recvcounts[i];
//    for Gatherv, the root's recvcounts[r] must equal rank r's
//    contribution count;
//  * root-sourced ops record a cheap FNV-1a payload signature over (the
//    first 4 KiB of) the root's buffer; the non-roots of a *blocking*
//    broadcast verify their received bytes against it when the call
//    returns, which catches payload corruption the envelope checks miss.
//
// Ledger keying. mpisim mask context ids are released and *reused* when a
// communicator is destroyed, so ledgers are keyed by (base context id,
// group content hash): a recycled id over a different group can never
// alias an old ledger, and a re-created communicator over the same group
// deliberately resumes its predecessor's sequence. RBC communicators have
// no context ids of their own (they are range views onto an MPI
// communicator); their ledgers extend the underlying communicator's key
// with the range triple (first, size, stride), and member slots are RBC
// ranks. The rbc layer registers each hand-rolled schedule as ONE logical
// collective through this interface -- the sanitizer checks intent, never
// the individual point-to-point messages of a schedule.
//
// Precondition checked, not assumed: all members of one group must issue
// their collectives over that group in the same program order. This is
// already the substrate's NBC-tag-counter precondition and the RBC
// library's Section V-A discipline; the sanitizer turns a violation from
// a hang into a two-rank diagnostic.
//
// Composite operations (Allreduce = Reduce + Bcast, Barrier = reduce +
// bcast chain, Alltoall -> Alltoallv, ...) record only their outermost
// public entry: a per-rank nesting depth suppresses the inner records, so
// every rank logs the logical op it was asked for, on every backend.
//
// Out of scope: the O(alpha) virtual-time wobble under kAnySource
// receives (same-envelope messages merge in wall-clock thread-scheduling
// order; see sched_service_test and the PDES item in ROADMAP.md) is a
// *clock* artifact. It never reorders any rank's program-order collective
// sequence, so it cannot produce sanitizer reports; wildcard-receive
// schedules (sparse exchange, service waves) are checked exactly like
// deterministic ones. Making vtime bit-reproducible is the PDES roadmap
// item, not a sanitizer concern.
//
// History per member is trimmed to the last kHistory records. A rank that
// runs more than kHistory collectives ahead of a peer (possible: eager
// sends never block) escapes comparison at the trimmed sequence numbers;
// any real divergence re-surfaces at a later number or as a deadlock,
// where the forensics report takes over.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/error.hpp"

namespace mpisim::sanitize {

/// Logical collective kinds, shared by every backend.
enum class CollKind : std::uint8_t {
  kBarrier,
  kBcast,
  kBcastLarge,
  kReduce,
  kAllreduce,
  kScan,
  // rbc::IscanWithTotal: inclusive prefix and total from one
  // up-sweep/down-sweep (rbc/collectives.hpp); the record's rider fields
  // carry its optional second block.
  kScanWithTotal,
  kExscan,
  kGather,
  kGatherv,
  kAllgather,
  kScatter,
  kAlltoall,
  kAlltoallv,
  kSparseAlltoallv,
  // Node-aware hierarchical all-to-all (topo/hier_collectives.hpp): three
  // point-to-point phases recorded as ONE logical op; the vnode leader
  // list (from which the gateways follow) is stored in counts_to so a
  // rank disagreeing about the topology produces a pairwise counts
  // mismatch instead of a deadlock.
  kHierAlltoallv,
};

const char* KindName(CollKind k);

/// One recorded collective entry of one rank.
struct OpRecord {
  CollKind kind = CollKind::kBarrier;
  bool nonblocking = false;
  int root = -1;  // -1 for rootless ops
  int tag = -1;   // logical tag; -1 when the backend has no caller tag
  std::int64_t count = -1;  // uniform element count; -1 for vector ops
  std::uint32_t dtype_size = 0;
  std::int64_t segment_bytes = 0;
  // rbc::IscanWithTotal's rider block; 0 and 0 when the call has none.
  std::int64_t rider_count = 0;
  std::uint32_t rider_dtype_size = 0;
  std::uint64_t sig = 0;  // root payload signature; 0 = none recorded
  std::vector<std::int64_t> counts_to;    // vector ops: per-peer send counts
  std::vector<std::int64_t> counts_from;  // vector ops: per-peer recv counts

  /// One-line rendering for diagnostics.
  std::string Describe() const;
};

/// Builder for the common (scalar-field) records; count vectors and
/// signatures are set on the returned value.
inline OpRecord MakeOp(CollKind kind, int root = -1, int tag = -1,
                       std::int64_t count = -1, std::uint32_t dtype_size = 0,
                       std::int64_t segment_bytes = 0) {
  OpRecord r;
  r.kind = kind;
  r.root = root;
  r.tag = tag;
  r.count = count;
  r.dtype_size = dtype_size;
  r.segment_bytes = segment_bytes;
  return r;
}

/// Ledger key; see the keying discussion above.
struct GroupKey {
  std::uint64_t ctx_base = 0;
  std::uint64_t group_hash = 0;
  std::uint64_t range = 0;  // rbc (first,size,stride) mix; 0 for MPI comms

  friend bool operator==(const GroupKey&, const GroupKey&) = default;
};

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& k) const;
};

/// FNV-1a over the first 4 KiB of a payload; cheap enough to run inline
/// on the root of every broadcast under the sanitizer.
std::uint64_t PayloadSignature(const void* data, std::size_t bytes);

/// True when the calling thread is a rank thread of a runtime with
/// sanitize_collectives on; call sites use it to skip building count
/// vectors and payload signatures on the fast path.
bool Enabled();

/// The per-runtime ledger registry. Thread-safe; every method may throw
/// CollectiveMismatchError from the recording rank's thread.
class Registry {
 public:
  /// Records `rec` as member `member`'s next operation on group `key`,
  /// cross-checks it against every other member's record at the same
  /// sequence number, and returns that sequence number.
  long Record(const GroupKey& key, const std::string& comm_desc, int member,
              int member_world, int nmembers, OpRecord rec);

  /// Blocking-broadcast exit check: a non-root compares the signature of
  /// its received payload against the root's entry record at `seq`.
  void CheckExitSignature(const GroupKey& key, int member, int member_world,
                          long seq, std::uint64_t sig);

  /// Drops all ledgers (called at the start of every Runtime::Run, so a
  /// run aborted at divergent sequence positions cannot poison the next).
  void Reset();

 private:
  struct MemberLog {
    int world_rank = -1;
    long base_seq = 0;  // sequence number of ops.front()
    std::deque<OpRecord> ops;

    long NextSeq() const {
      return base_seq + static_cast<long>(ops.size());
    }
    const OpRecord* At(long seq) const {
      if (seq < base_seq || seq >= NextSeq()) return nullptr;
      return &ops[static_cast<std::size_t>(seq - base_seq)];
    }
  };
  struct Ledger {
    std::string desc;
    std::vector<MemberLog> members;
  };

  static constexpr std::size_t kHistory = 64;  // records kept per member
  static constexpr int kContextOps = 4;        // matching ops shown on error

  [[noreturn]] void ThrowMismatch(const Ledger& led, int member_a, long seq_a,
                                  const OpRecord& a, int member_b, long seq_b,
                                  const OpRecord& b, const std::string& why);

  std::mutex mu_;
  std::unordered_map<GroupKey, Ledger, GroupKeyHash> ledgers_;
};

/// RAII recorder for one public collective entry on a rank thread.
/// Inactive when the sanitizer is off, when called outside a rank thread,
/// or when nested inside another collective (composite ops record only
/// their outermost logical op). The destructor runs the armed blocking-
/// broadcast exit check, so it is deliberately noexcept(false).
class Scope {
 public:
  /// Records over an mpisim communicator's group.
  Scope(const Comm& comm, OpRecord rec);

  /// Records over an explicitly keyed group (the rbc layer builds keys
  /// from its range views; see rbc/sanitize.hpp).
  Scope(const GroupKey& key, const std::string& desc, int member,
        int member_world, int nmembers, OpRecord rec);

  ~Scope() noexcept(false);

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Arms the destructor to verify `bytes` of `buf` against the root's
  /// recorded payload signature (blocking broadcast, non-root ranks).
  void ArmExitSignatureCheck(const void* buf, std::size_t bytes);

 private:
  void Init(const GroupKey& key, const std::string& desc, int member,
            int member_world, int nmembers, OpRecord&& rec);

  bool depth_held_ = false;
  bool active_ = false;
  Registry* registry_ = nullptr;
  GroupKey key_{};
  int member_ = -1;
  int member_world_ = -1;
  long seq_ = -1;
  const void* check_buf_ = nullptr;
  std::size_t check_bytes_ = 0;
};

}  // namespace mpisim::sanitize
