// rbc::Gather / rbc::Igather -- tree gather (TreeFor's binomial or
// node-spread tree) of uniform blocks.
#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {
namespace {

class GatherSM final : public RequestImpl {
 public:
  GatherSM(const void* send, int count, Datatype dt, void* recv, int root,
           Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), comm_(std::move(comm)),
        tag_(tag), tree_(TreeFor(comm_, root)), block_(ByteCount(count, dt)) {
    buf_.resize(static_cast<std::size_t>(tree_.Extent()) * block_);
    if (block_ != 0) std::memcpy(buf_.data(), send, block_);
    if (!tree_.children.empty()) PostChild();
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Children one at a time, in list order, so the model time never
    // depends on which subtree's message arrived first.
    while (child_ < tree_.children.size()) {
      if (!pending_.Poll()) return false;
      if (++child_ < tree_.children.size()) PostChild();
    }
    if (tree_.parent >= 0) {
      SendInternal(buf_.data(), tree_.Extent() * count_, dt_, tree_.parent,
                   tag_, comm_);
    } else if (block_ != 0) {
      // The buffer holds the tree in pre-order; scatter it into RBC-rank
      // order.
      auto* out = static_cast<std::byte*>(recv_);
      for (std::size_t pos = 0; pos < tree_.order.size(); ++pos) {
        std::memcpy(out + static_cast<std::size_t>(tree_.order[pos]) * block_,
                    buf_.data() + pos * block_, block_);
      }
    }
    done_ = true;
    return true;
  }

 private:
  void PostChild() {
    pending_ = IrecvInternal(
        buf_.data() +
            static_cast<std::size_t>(tree_.child_offsets[child_]) * block_,
        tree_.child_extents[child_] * count_, dt_, tree_.children[child_],
        tag_, comm_);
  }

  void* recv_;
  int count_;
  Datatype dt_;
  Comm comm_;
  int tag_;
  Tree tree_;
  std::size_t block_;
  std::vector<std::byte> buf_;
  std::size_t child_ = 0;
  Request pending_;
  bool done_ = false;
};

}  // namespace
}  // namespace detail

int Gather(const void* sendbuf, int count, Datatype dt, void* recvbuf,
           int root, const Comm& comm) {
  detail::ValidateCollective(comm, root, "Gather");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kGather, root, kTagGather,
                             count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(
      std::make_shared<detail::GatherSM>(sendbuf, count, dt, recvbuf, root,
                                         comm, kTagGather),
      "rbc: Gather");
  return 0;
}

int Igather(const void* sendbuf, int count, Datatype dt, void* recvbuf,
            int root, const Comm& comm, Request* request, int tag) {
  detail::ValidateCollective(comm, root, "Igather");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Igather: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kGather, root, tag, count,
                              mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(std::make_shared<detail::GatherSM>(
      sendbuf, count, dt, recvbuf, root, comm, tag));
  return 0;
}

}  // namespace rbc
