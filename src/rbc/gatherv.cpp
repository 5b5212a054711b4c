// rbc::Gatherv / rbc::Igatherv -- tree gather (TreeFor's binomial or
// node-spread tree) with per-rank counts. Interior nodes do not know their
// descendants' counts, so subtree messages are self-describing:
// [int32 n][int32 counts[n]][payload] with counts in the tree's pre-order.
// Sizes are discovered with source-specific probes, one child at a time.
#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

class GathervSM final : public RequestImpl {
 public:
  GathervSM(const void* send, int count, Datatype dt, void* recv,
            std::span<const int> recvcounts, std::span<const int> displs,
            int root, Comm comm, int tag)
      : recv_(recv), recvcounts_(recvcounts.begin(), recvcounts.end()),
        displs_(displs.begin(), displs.end()), dt_(dt),
        comm_(std::move(comm)), tag_(tag), tree_(TreeFor(comm_, root)) {
    counts_.push_back(count);
    payload_.resize(ByteCount(count, dt));
    if (!payload_.empty()) std::memcpy(payload_.data(), send, payload_.size());
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Children one at a time, in list order: probe for the child's size,
    // then take the probed message (it is already here, so the receive
    // completes at once). Appending in list order keeps counts_ and
    // payload_ in the tree's pre-order, and the model time never depends
    // on which message arrived first.
    while (child_ < tree_.children.size()) {
      const int child = tree_.children[child_];
      Status st;
      if (!IprobeInternal(child, tag_, comm_, &st)) return false;
      child_msg_.resize(st.bytes);
      RecvInternal(child_msg_.data(), static_cast<int>(st.bytes),
                   Datatype::kByte, child, tag_, comm_);
      AppendChild(child_msg_);
      ++child_;
    }
    Finish();
    done_ = true;
    return true;
  }

 private:
  void AppendChild(const std::vector<std::byte>& msg) {
    std::int32_t n = 0;
    std::memcpy(&n, msg.data(), sizeof n);
    const std::size_t old = counts_.size();
    counts_.resize(old + static_cast<std::size_t>(n));
    std::memcpy(counts_.data() + old, msg.data() + sizeof n,
                sizeof(std::int32_t) * static_cast<std::size_t>(n));
    const std::size_t hdr =
        sizeof(std::int32_t) * (1 + static_cast<std::size_t>(n));
    if (msg.size() == hdr) return;  // an all-empty subtree
    const std::size_t oldp = payload_.size();
    payload_.resize(oldp + (msg.size() - hdr));
    std::memcpy(payload_.data() + oldp, msg.data() + hdr, msg.size() - hdr);
  }

  void Finish() {
    if (tree_.parent >= 0) {
      std::vector<std::byte> msg(sizeof(std::int32_t) * (1 + counts_.size()) +
                                 payload_.size());
      const std::int32_t n = static_cast<std::int32_t>(counts_.size());
      std::memcpy(msg.data(), &n, sizeof n);
      std::memcpy(msg.data() + sizeof n, counts_.data(),
                  sizeof(std::int32_t) * counts_.size());
      if (!payload_.empty()) {
        std::memcpy(msg.data() + sizeof(std::int32_t) * (1 + counts_.size()),
                    payload_.data(), payload_.size());
      }
      SendInternal(msg.data(), static_cast<int>(msg.size()), Datatype::kByte,
                   tree_.parent, tag_, comm_);
      return;
    }
    const int p = comm_.Size();
    if (static_cast<int>(counts_.size()) != p) {
      throw mpisim::UsageError(
          "rbc::Gatherv: internal: incomplete subtree counts");
    }
    const std::size_t esize = mpisim::SizeOf(dt_);
    auto* out = static_cast<std::byte*>(recv_);
    std::size_t off = 0;
    for (int pos = 0; pos < p; ++pos) {
      const int abs = tree_.order[static_cast<std::size_t>(pos)];
      if (counts_[pos] != recvcounts_[abs]) {
        throw mpisim::UsageError(
            "rbc::Gatherv: recvcounts disagree with sent counts");
      }
      const std::size_t nbytes =
          static_cast<std::size_t>(counts_[pos]) * esize;
      if (nbytes != 0) {
        std::memcpy(out + static_cast<std::size_t>(displs_[abs]) * esize,
                    payload_.data() + off, nbytes);
      }
      off += nbytes;
    }
  }

  void* recv_;
  std::vector<int> recvcounts_;
  std::vector<int> displs_;
  Datatype dt_;
  Comm comm_;
  int tag_;
  Tree tree_;
  std::vector<std::int32_t> counts_;
  std::vector<std::byte> payload_;
  std::size_t child_ = 0;
  std::vector<std::byte> child_msg_;
  bool done_ = false;
};

}  // namespace
}  // namespace detail

int Gatherv(const void* sendbuf, int count, Datatype dt, void* recvbuf,
            std::span<const int> recvcounts, std::span<const int> displs,
            int root, const Comm& comm) {
  detail::ValidateCollective(comm, root, "Gatherv");
  auto grec = sanitize::MakeOp(sanitize::CollKind::kGatherv, root,
                               kTagGatherv, count, mpisim::SizeOf(dt));
  if (comm.Rank() == root && sanitize::Enabled()) {
    grec.counts_from = sanitize::ToCounts(recvcounts);
  }
  sanitize::CollectiveScope san(comm, std::move(grec));
  detail::RunToCompletion(
      std::make_shared<detail::GathervSM>(sendbuf, count, dt, recvbuf,
                                          recvcounts, displs, root, comm,
                                          kTagGatherv),
      "rbc: Gatherv");
  return 0;
}

int Igatherv(const void* sendbuf, int count, Datatype dt, void* recvbuf,
             std::span<const int> recvcounts, std::span<const int> displs,
             int root, const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, root, "Igatherv");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Igatherv: null request");
  }
  auto grec = sanitize::MakeOp(sanitize::CollKind::kGatherv, root, tag, count,
                               mpisim::SizeOf(dt));
  grec.nonblocking = true;
  if (comm.Rank() == root && sanitize::Enabled()) {
    grec.counts_from = sanitize::ToCounts(recvcounts);
  }
  sanitize::CollectiveScope san(comm, std::move(grec));
  *request = Request(std::make_shared<detail::GathervSM>(
      sendbuf, count, dt, recvbuf, recvcounts, displs, root, comm, tag));
  return 0;
}

}  // namespace rbc
