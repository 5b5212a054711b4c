#include "mpisim/sanitizer.hpp"

#include <algorithm>
#include <sstream>

#include "mpisim/runtime.hpp"

namespace mpisim::sanitize {

namespace {

std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// Renders a vector of counts, eliding the middle of long ones.
std::string DescribeCounts(const std::vector<std::int64_t>& v) {
  std::ostringstream os;
  os << '[';
  const std::size_t shown = std::min<std::size_t>(v.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i != 0) os << ' ';
    os << v[i];
  }
  if (v.size() > shown) os << " ...+" << v.size() - shown;
  os << ']';
  return os.str();
}

}  // namespace

const char* KindName(CollKind k) {
  switch (k) {
    case CollKind::kBarrier: return "Barrier";
    case CollKind::kBcast: return "Bcast";
    case CollKind::kBcastLarge: return "BcastLarge";
    case CollKind::kReduce: return "Reduce";
    case CollKind::kAllreduce: return "Allreduce";
    case CollKind::kScan: return "Scan";
    case CollKind::kScanWithTotal: return "ScanWithTotal";
    case CollKind::kExscan: return "Exscan";
    case CollKind::kGather: return "Gather";
    case CollKind::kGatherv: return "Gatherv";
    case CollKind::kAllgather: return "Allgather";
    case CollKind::kScatter: return "Scatter";
    case CollKind::kAlltoall: return "Alltoall";
    case CollKind::kAlltoallv: return "Alltoallv";
    case CollKind::kSparseAlltoallv: return "SparseAlltoallv";
    case CollKind::kHierAlltoallv: return "HierAlltoallv";
  }
  return "?";
}

std::string OpRecord::Describe() const {
  std::ostringstream os;
  os << (nonblocking ? "I" : "") << KindName(kind);
  if (root >= 0) os << " root=" << root;
  if (tag >= 0) os << " tag=" << tag;
  if (count >= 0) os << " count=" << count;
  if (dtype_size != 0) os << " dtype_size=" << dtype_size;
  if (segment_bytes != 0) os << " segment_bytes=" << segment_bytes;
  if (rider_count != 0) {
    os << " rider_count=" << rider_count
       << " rider_dtype_size=" << rider_dtype_size;
  }
  if (sig != 0) os << " sig=0x" << std::hex << sig << std::dec;
  if (!counts_to.empty()) os << " sendcounts=" << DescribeCounts(counts_to);
  if (!counts_from.empty()) {
    os << " recvcounts=" << DescribeCounts(counts_from);
  }
  return os.str();
}

std::size_t GroupKeyHash::operator()(const GroupKey& k) const {
  std::uint64_t h = kFnvOffset;
  h = Fnv1a(h, k.ctx_base);
  h = Fnv1a(h, k.group_hash);
  h = Fnv1a(h, k.range);
  return static_cast<std::size_t>(h);
}

bool Enabled() {
  return InsideRank() && Ctx().runtime->options().sanitize_collectives;
}

std::uint64_t PayloadSignature(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t n = std::min<std::size_t>(bytes, 4096);
  std::uint64_t h = Fnv1a(kFnvOffset, bytes);  // total length always counts
  for (std::size_t i = 0; i < n; ++i) h = Fnv1a(h, p[i]);
  // Never return the "no signature" sentinel for real data.
  return h == 0 ? 1 : h;
}

namespace {

/// Ops whose `count` field is legitimately different per member (each
/// rank's own contribution / buffer size); their consistency is checked
/// pairwise against the count vectors instead.
bool PerMemberCount(CollKind k) {
  switch (k) {
    case CollKind::kGatherv:
    case CollKind::kAlltoallv:
    case CollKind::kSparseAlltoallv:
    case CollKind::kHierAlltoallv:
      return true;
    default:
      return false;
  }
}

/// Returns a human-readable reason iff the uniform fields of two records
/// at one sequence number disagree; empty string when they match.
std::string UniformMismatch(const OpRecord& a, const OpRecord& b) {
  if (a.kind != b.kind || a.nonblocking != b.nonblocking) {
    return "different collective operations";
  }
  if (a.root != b.root) return "different roots";
  if (a.tag != b.tag) return "different tags";
  if (!PerMemberCount(a.kind) && a.count != b.count) {
    return "different element counts";
  }
  if (a.dtype_size != b.dtype_size) return "different datatype sizes";
  if (a.segment_bytes != b.segment_bytes) return "different segment limits";
  if (a.rider_count != b.rider_count ||
      a.rider_dtype_size != b.rider_dtype_size) {
    return "different rider blocks";
  }
  return {};
}

/// Pairwise vector-count checks between member `ma` (record a) and member
/// `mb` (record b); returns a reason on mismatch, empty when consistent.
std::string PairwiseMismatch(const OpRecord& a, int ma, const OpRecord& b,
                             int mb) {
  // The hierarchical all-to-all stores the elected leader list in
  // counts_to: every member must agree, or the gateway phase deadlocks.
  if (a.kind == CollKind::kHierAlltoallv && !a.counts_to.empty() &&
      !b.counts_to.empty() && a.counts_to != b.counts_to) {
    return "different elected leader sets (topology divergence)";
  }
  // Alltoallv: a's send count towards mb must equal b's expected receive
  // count from ma, and vice versa.
  if (a.kind == CollKind::kAlltoallv || a.kind == CollKind::kAlltoall) {
    const auto at = [](const std::vector<std::int64_t>& v, int i,
                       std::int64_t* out) {
      if (i < 0 || static_cast<std::size_t>(i) >= v.size()) return false;
      *out = v[static_cast<std::size_t>(i)];
      return true;
    };
    std::int64_t send_ab = 0, recv_ba = 0;
    if (at(a.counts_to, mb, &send_ab) && at(b.counts_from, ma, &recv_ba) &&
        send_ab != recv_ba) {
      std::ostringstream os;
      os << "rank sends " << send_ab << " elements but peer expects "
         << recv_ba << " (truncated or padded payload)";
      return os.str();
    }
    std::int64_t send_ba = 0, recv_ab = 0;
    if (at(b.counts_to, ma, &send_ba) && at(a.counts_from, mb, &recv_ab) &&
        send_ba != recv_ab) {
      std::ostringstream os;
      os << "peer sends " << send_ba << " elements but rank expects "
         << recv_ab << " (truncated or padded payload)";
      return os.str();
    }
  }
  // Gatherv: the side holding recvcounts must expect exactly
  // the other side's contribution count.
  if (a.kind == CollKind::kGatherv) {
    const auto check = [](const OpRecord& with_counts, int other_member,
                          const OpRecord& other) -> std::string {
      if (with_counts.counts_from.empty() || other.count < 0) return {};
      if (other_member < 0 ||
          static_cast<std::size_t>(other_member) >=
              with_counts.counts_from.size()) {
        return {};
      }
      const std::int64_t expected =
          with_counts.counts_from[static_cast<std::size_t>(other_member)];
      if (expected != other.count) {
        std::ostringstream os;
        os << "recvcounts expects " << expected
           << " elements from the peer but the peer contributes "
           << other.count;
        return os.str();
      }
      return {};
    };
    if (auto why = check(a, mb, b); !why.empty()) return why;
    if (auto why = check(b, ma, a); !why.empty()) return why;
  }
  return {};
}

}  // namespace

void Registry::ThrowMismatch(const Ledger& led, int member_a, long seq_a,
                             const OpRecord& a, int member_b, long seq_b,
                             const OpRecord& b, const std::string& why) {
  const int world_a = led.members[static_cast<std::size_t>(member_a)]
                          .world_rank;
  const int world_b = led.members[static_cast<std::size_t>(member_b)]
                          .world_rank;
  std::ostringstream os;
  os << "collective sanitizer: mismatch on " << led.desc << " at sequence #"
     << seq_a << ": " << why << "\n"
     << "  rank " << world_a << " (member " << member_a << ") op #" << seq_a
     << ": " << a.Describe() << "\n"
     << "  rank " << world_b << " (member " << member_b << ") op #" << seq_b
     << ": " << b.Describe() << "\n";
  // The last few matching ops of the detecting member, for context.
  const MemberLog& log_a = led.members[static_cast<std::size_t>(member_a)];
  int shown = 0;
  for (long s = seq_a - 1; s >= log_a.base_seq && shown < kContextOps;
       --s, ++shown) {
    const OpRecord* r = log_a.At(s);
    if (r == nullptr) break;
    os << "  matching op #" << s << ": " << r->Describe() << "\n";
  }
  if (shown == 0) os << "  (no earlier ops recorded on this communicator)\n";
  throw CollectiveMismatchError(os.str(), world_a, world_b, seq_a, seq_b);
}

long Registry::Record(const GroupKey& key, const std::string& comm_desc,
                      int member, int member_world, int nmembers,
                      OpRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  Ledger& led = ledgers_[key];
  if (led.members.empty()) {
    led.desc = comm_desc;
    led.members.resize(static_cast<std::size_t>(nmembers));
  }
  if (member < 0 || static_cast<std::size_t>(member) >= led.members.size()) {
    throw UsageError("collective sanitizer: member index out of range for " +
                     comm_desc);
  }
  MemberLog& mine = led.members[static_cast<std::size_t>(member)];
  mine.world_rank = member_world;
  const long seq = mine.NextSeq();
  mine.ops.push_back(std::move(rec));
  if (mine.ops.size() > kHistory) {
    mine.ops.pop_front();
    ++mine.base_seq;
  }
  const OpRecord& a = *mine.At(seq);

  for (int other = 0; other < nmembers; ++other) {
    if (other == member) continue;
    const MemberLog& theirs = led.members[static_cast<std::size_t>(other)];
    const OpRecord* b = theirs.At(seq);
    if (b == nullptr) continue;  // peer not there yet, or trimmed
    if (auto why = UniformMismatch(a, *b); !why.empty()) {
      ThrowMismatch(led, member, seq, a, other, seq, *b, why);
    }
    if (auto why = PairwiseMismatch(a, member, *b, other); !why.empty()) {
      ThrowMismatch(led, member, seq, a, other, seq, *b, why);
    }
  }
  return seq;
}

void Registry::CheckExitSignature(const GroupKey& key, int member,
                                  int /*member_world*/, long seq,
                                  std::uint64_t sig) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ledgers_.find(key);
  if (it == ledgers_.end()) return;
  Ledger& led = it->second;
  const MemberLog* mine =
      (member >= 0 && static_cast<std::size_t>(member) < led.members.size())
          ? &led.members[static_cast<std::size_t>(member)]
          : nullptr;
  for (std::size_t other = 0; other < led.members.size(); ++other) {
    if (static_cast<int>(other) == member) continue;
    const OpRecord* b = led.members[other].At(seq);
    if (b == nullptr || b->sig == 0) continue;  // not the root's record
    if (b->sig != sig) {
      const OpRecord* a = mine != nullptr ? mine->At(seq) : nullptr;
      OpRecord received = a != nullptr ? *a : OpRecord{};
      received.sig = sig;
      ThrowMismatch(led, member, seq, received, static_cast<int>(other), seq,
                    *b,
                    "received payload signature differs from the root's "
                    "(payload corrupted in the schedule)");
    }
    return;  // the root's record matched; done
  }
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ledgers_.clear();
}

Scope::Scope(const Comm& comm, OpRecord rec) {
  if (!InsideRank()) return;
  RankContext& rc = Ctx();
  if (!rc.runtime->options().sanitize_collectives) return;
  depth_held_ = true;
  if (rc.sanitize_depth++ > 0) return;  // nested composite: outer op only
  GroupKey key{comm.Base(), comm.GroupHash(), 0};
  std::ostringstream desc;
  desc << "mpi comm (ctx base " << comm.Base() << ", size " << comm.Size()
       << ")";
  try {
    Init(key, desc.str(), comm.Rank(), rc.world_rank, comm.Size(),
         std::move(rec));
  } catch (...) {
    // A throwing constructor skips the destructor: release the depth here.
    --rc.sanitize_depth;
    throw;
  }
}

Scope::Scope(const GroupKey& key, const std::string& desc, int member,
             int member_world, int nmembers, OpRecord rec) {
  if (!InsideRank()) return;
  RankContext& rc = Ctx();
  if (!rc.runtime->options().sanitize_collectives) return;
  depth_held_ = true;
  if (rc.sanitize_depth++ > 0) return;
  try {
    Init(key, desc, member, member_world, nmembers, std::move(rec));
  } catch (...) {
    --rc.sanitize_depth;
    throw;
  }
}

void Scope::Init(const GroupKey& key, const std::string& desc, int member,
                 int member_world, int nmembers, OpRecord&& rec) {
  RankContext& rc = Ctx();
  registry_ = &rc.runtime->Sanitizer();
  key_ = key;
  member_ = member;
  member_world_ = member_world;
  active_ = true;
  seq_ = registry_->Record(key_, desc, member_, member_world_, nmembers,
                           std::move(rec));
}

Scope::~Scope() noexcept(false) {
  if (depth_held_) --Ctx().sanitize_depth;
  if (active_ && seq_ >= 0 && check_buf_ != nullptr &&
      std::uncaught_exceptions() == 0) {
    registry_->CheckExitSignature(
        key_, member_, member_world_, seq_,
        PayloadSignature(check_buf_, check_bytes_));
  }
}

void Scope::ArmExitSignatureCheck(const void* buf, std::size_t bytes) {
  if (!active_ || seq_ < 0) return;
  check_buf_ = buf;
  check_bytes_ = bytes;
}

}  // namespace mpisim::sanitize
