// rbc::Reduce / rbc::Ireduce -- tree reduction (TreeFor's binomial or
// node-spread tree) over RBC point-to-point operations (commutative
// operators).
#include "rbc/collectives.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace rbc {
namespace detail {

// Shared with barrier.cpp (reduce half of the barrier chain).
class ReduceSM final : public RequestImpl {
 public:
  ReduceSM(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
           int root, Comm comm, int tag)
      : recv_(recv), count_(count), dt_(dt), op_(op),
        comm_(std::move(comm)), tag_(tag), tree_(TreeFor(comm_, root)),
        acc_(ByteCount(count, dt)), child_buf_(acc_.size()) {
    if (!acc_.empty()) std::memcpy(acc_.data(), send, acc_.size());
    if (!tree_.children.empty()) PostChild();
  }

  bool Test(Status*) override {
    if (done_) return true;
    // Children one at a time, in list order: the fold order, and so the
    // model time, never depends on which message arrived first. The
    // operator application is this state's local work.
    while (child_ < tree_.children.size()) {
      if (!pending_.Poll()) return false;
      mpisim::ApplyReduce(op_, dt_, child_buf_.data(), acc_.data(), count_);
      if (++child_ < tree_.children.size()) PostChild();
    }
    if (tree_.parent >= 0) {
      SendInternal(acc_.data(), count_, dt_, tree_.parent, tag_, comm_);
    } else if (recv_ != nullptr && !acc_.empty()) {
      std::memcpy(recv_, acc_.data(), acc_.size());
    }
    done_ = true;
    return true;
  }

 private:
  void PostChild() {
    pending_ = IrecvInternal(child_buf_.data(), count_, dt_,
                             tree_.children[child_], tag_, comm_);
  }

  void* recv_;
  int count_;
  Datatype dt_;
  ReduceOp op_;
  Comm comm_;
  int tag_;
  Tree tree_;
  std::vector<std::byte> acc_;
  std::vector<std::byte> child_buf_;
  std::size_t child_ = 0;
  Request pending_;
  bool done_ = false;
};

std::shared_ptr<RequestImpl> MakeReduceSM(const void* send, void* recv,
                                          int count, Datatype dt, ReduceOp op,
                                          int root, const Comm& comm,
                                          int tag) {
  return std::make_shared<ReduceSM>(send, recv, count, dt, op, root, comm,
                                    tag);
}

}  // namespace detail

int Reduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
           ReduceOp op, int root, const Comm& comm) {
  detail::ValidateCollective(comm, root, "Reduce");
  sanitize::CollectiveScope san(
      comm, sanitize::MakeOp(sanitize::CollKind::kReduce, root, kTagReduce,
                             count, mpisim::SizeOf(dt)));
  detail::RunToCompletion(detail::MakeReduceSM(sendbuf, recvbuf, count, dt,
                                               op, root, comm, kTagReduce),
                          "rbc: Reduce");
  return 0;
}

int Ireduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
            ReduceOp op, int root, const Comm& comm, Request* request,
            int tag) {
  detail::ValidateCollective(comm, root, "Ireduce");
  if (request == nullptr) {
    throw mpisim::UsageError("rbc::Ireduce: null request");
  }
  auto rec = sanitize::MakeOp(sanitize::CollKind::kReduce, root, tag, count,
                              mpisim::SizeOf(dt));
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(
      detail::MakeReduceSM(sendbuf, recvbuf, count, dt, op, root, comm, tag));
  return 0;
}

}  // namespace rbc
