// rbc::Gather / rbc::Igather -- binomial-tree gather of uniform blocks.
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
      : recv_(recv), count_(count), dt_(dt), root_(root),
        comm_(std::move(comm)), tag_(tag), tree_(TreeFor(comm_, root)) {
    extent_ = 1;
    for (int e : tree_.child_extents) extent_ += e;
    const std::size_t block = ByteCount(count, dt);
    buf_.resize(static_cast<std::size_t>(extent_) * block);
    if (block != 0) std::memcpy(buf_.data(), send, block);
    child_reqs_.resize(tree_.children.size());
    // The i-th child (increasing mask order) roots the subtree at relative
    // offset 1 << i inside this node's slice.
    for (std::size_t i = 0; i < tree_.children.size(); ++i) {
      const std::size_t off = (std::size_t{1} << i) * block;
      child_reqs_[i] =
          IrecvInternal(buf_.data() + off, tree_.child_extents[i] * count_,
                        dt_, tree_.children[i], tag_, comm_);
    }
  }

  bool Test(Status*) override {
    if (done_) return true;
    int flag = 0;
    Testall(std::span<Request>(child_reqs_), &flag);
    if (flag == 0) return false;
    if (tree_.parent >= 0) {
      SendInternal(buf_.data(), extent_ * count_, dt_, tree_.parent, tag_,
                   comm_);
    } else {
      // Rotate relative-rank-ordered blocks into absolute RBC-rank order.
      const int p = comm_.Size();
      const std::size_t block = ByteCount(count_, dt_);
      auto* out = static_cast<std::byte*>(recv_);
      for (int rel = 0; rel < p; ++rel) {
        const int abs = (rel + root_) % p;
        if (block != 0) {
          std::memcpy(out + static_cast<std::size_t>(abs) * block,
                      buf_.data() + static_cast<std::size_t>(rel) * block,
                      block);
        }
      }
    }
    done_ = true;
    return true;
  }

 private:
  void* recv_;
  int count_;
  Datatype dt_;
  int root_;
  Comm comm_;
  int tag_;
  Tree tree_;
  int extent_ = 1;
  std::vector<std::byte> buf_;
  std::vector<Request> child_reqs_;
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
