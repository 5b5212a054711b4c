#include "sort/transport.hpp"

#include <array>
#include <utility>
#include <vector>

namespace jsort {
namespace {

/// Adapts an rbc::Request into a Poll.
Poll WrapRbc(rbc::Request req) {
  return [req = std::move(req)]() mutable { return req.Poll(nullptr); };
}

/// Adapts an mpisim::Request into a Poll.
Poll WrapMpi(mpisim::Request req) {
  return [req = std::move(req)]() mutable { return req.Test(nullptr); };
}

/// RBC collective tag scheme: the caller's logical tag (e.g. recursion
/// level) and an operation code map to disjoint reserved tags, so two
/// simultaneous collectives never share a tag unless the caller reuses the
/// logical tag for the same operation.
constexpr int kRbcOpBcast = 0;
constexpr int kRbcOpScan = 1;
constexpr int kRbcOpReduce = 2;
constexpr int kRbcOpGather = 3;
constexpr int kRbcOpAlltoallv = 4;
int RbcCollTag(int tag, int op) {
  return rbc::kReservedTagBase + (1 << 12) + tag * 8 + op;
}

class RbcTransport final : public Transport {
 public:
  explicit RbcTransport(rbc::Comm comm) : comm_(std::move(comm)) {
    if (comm_.Rank() < 0) {
      throw mpisim::UsageError("RbcTransport: caller not in range");
    }
  }

  int Rank() const override { return comm_.Rank(); }
  int Size() const override { return comm_.Size(); }

  int WorldRankOf(int r) const override {
    return comm_.Mpi().WorldRank(comm_.ToMpi(r));
  }

  Poll Ibcast(void* buf, int count, Datatype dt, int root,
              int tag) override {
    rbc::Request req;
    rbc::Ibcast(buf, count, dt, root, comm_, &req,
                RbcCollTag(tag, kRbcOpBcast));
    return WrapRbc(std::move(req));
  }

  Poll Iscan(const void* send, void* recv, int count, Datatype dt,
             ReduceOp op, int tag) override {
    rbc::Request req;
    rbc::Iscan(send, recv, count, dt, op, comm_, &req,
               RbcCollTag(tag, kRbcOpScan));
    return WrapRbc(std::move(req));
  }

  Poll Ireduce(const void* send, void* recv, int count, Datatype dt,
               ReduceOp op, int root, int tag) override {
    rbc::Request req;
    rbc::Ireduce(send, recv, count, dt, op, root, comm_, &req,
                 RbcCollTag(tag, kRbcOpReduce));
    return WrapRbc(std::move(req));
  }

  Poll Igather(const void* send, int count, Datatype dt, void* recv,
               int root, int tag) override {
    rbc::Request req;
    rbc::Igather(send, count, dt, recv, root, comm_, &req,
                 RbcCollTag(tag, kRbcOpGather));
    return WrapRbc(std::move(req));
  }

  Poll Ialltoallv(const void* send, std::span<const int> sendcounts,
                  std::span<const int> sdispls, Datatype dt, void* recv,
                  std::span<const int> recvcounts,
                  std::span<const int> rdispls, int tag,
                  std::int64_t segment_bytes) override {
    rbc::Request req;
    rbc::Ialltoallv(send, sendcounts, sdispls, dt, recv, recvcounts, rdispls,
                    comm_, &req, RbcCollTag(tag, kRbcOpAlltoallv),
                    segment_bytes);
    return WrapRbc(std::move(req));
  }

  Poll IsparseAlltoallv(std::span<const SparseBlock> sends, Datatype dt,
                        std::vector<SparseDelivery>* received, int tag,
                        std::int64_t segment_bytes) override {
    rbc::Request req;
    rbc::IsparseAlltoallv(sends, dt, received, comm_, &req, tag,
                          segment_bytes);
    return WrapRbc(std::move(req));
  }

  void Send(const void* buf, int count, Datatype dt, int dest,
            int tag) override {
    rbc::Send(buf, count, dt, dest, tag, comm_);
  }

  bool IprobeAny(int tag, Status* st) override {
    int flag = 0;
    rbc::Iprobe(rbc::kAnySource, tag, comm_, &flag, st);
    return flag != 0;
  }

  void Recv(void* buf, int count, Datatype dt, int src, int tag,
            Status* st) override {
    rbc::Recv(buf, count, dt, src, tag, comm_, st);
  }

  std::shared_ptr<Transport> Split(int first, int last) override {
    rbc::Comm sub;
    rbc::Split_RBC_Comm(comm_, first, last, &sub);
    return std::make_shared<RbcTransport>(std::move(sub));
  }

  const char* Name() const override { return "RBC"; }

 private:
  rbc::Comm comm_;
};

/// Common base of the two MPI-communicator-backed transports; only the
/// split strategy differs.
class MpiTransportBase : public Transport {
 public:
  explicit MpiTransportBase(mpisim::Comm comm) : comm_(std::move(comm)) {
    if (comm_.IsNull()) {
      throw mpisim::UsageError("MpiTransport: null communicator");
    }
  }

  int Rank() const override { return comm_.Rank(); }
  int Size() const override { return comm_.Size(); }

  int WorldRankOf(int r) const override { return comm_.WorldRank(r); }

  // The MPI transports have private contexts per group, so the tag
  // parameter is unnecessary for collectives (the NBC tag counter of the
  // communicator handles ordering) -- exactly MPI semantics.
  Poll Ibcast(void* buf, int count, Datatype dt, int root,
              int /*tag*/) override {
    return WrapMpi(mpisim::Ibcast(buf, count, dt, root, comm_));
  }

  Poll Iscan(const void* send, void* recv, int count, Datatype dt,
             ReduceOp op, int /*tag*/) override {
    return WrapMpi(mpisim::Iscan(send, recv, count, dt, op, comm_));
  }

  Poll Ireduce(const void* send, void* recv, int count, Datatype dt,
               ReduceOp op, int root, int /*tag*/) override {
    return WrapMpi(mpisim::Ireduce(send, recv, count, dt, op, root, comm_));
  }

  Poll Igather(const void* send, int count, Datatype dt, void* recv,
               int root, int /*tag*/) override {
    return WrapMpi(mpisim::Igather(send, count, dt, recv, root, comm_));
  }

  Poll Ialltoallv(const void* send, std::span<const int> sendcounts,
                  std::span<const int> sdispls, Datatype dt, void* recv,
                  std::span<const int> recvcounts,
                  std::span<const int> rdispls, int /*tag*/,
                  std::int64_t segment_bytes) override {
    return WrapMpi(mpisim::Ialltoallv(send, sendcounts, sdispls, dt, recv,
                                      recvcounts, rdispls, comm_,
                                      segment_bytes));
  }

  Poll IsparseAlltoallv(std::span<const SparseBlock> sends, Datatype dt,
                        std::vector<SparseDelivery>* received, int /*tag*/,
                        std::int64_t segment_bytes) override {
    return WrapMpi(
        mpisim::IsparseAlltoallv(sends, dt, received, comm_, segment_bytes));
  }

  void Send(const void* buf, int count, Datatype dt, int dest,
            int tag) override {
    mpisim::Send(buf, count, dt, dest, tag, comm_);
  }

  bool IprobeAny(int tag, Status* st) override {
    // Private context: every matching message belongs to this group.
    return mpisim::Iprobe(mpisim::kAnySource, tag, comm_, st);
  }

  void Recv(void* buf, int count, Datatype dt, int src, int tag,
            Status* st) override {
    mpisim::Recv(buf, count, dt, src, tag, comm_, st);
  }

 protected:
  mpisim::Comm comm_;
};

class MpiTransport final : public MpiTransportBase {
 public:
  using MpiTransportBase::MpiTransportBase;

  std::shared_ptr<Transport> Split(int first, int last) override {
    // Blocking collective over the subgroup: context-mask agreement plus
    // explicit O(group) rank-array construction (Section III).
    const std::array<mpisim::RankRange, 1> range{
        mpisim::RankRange{first, last, 1}};
    mpisim::Group group = mpisim::GroupRangeIncl(comm_, range);
    mpisim::Comm sub = mpisim::CommCreateGroup(comm_, group, /*tag=*/0);
    return std::make_shared<MpiTransport>(std::move(sub));
  }

  const char* Name() const override { return "MPI"; }
};

class IcommTransport final : public MpiTransportBase {
 public:
  using MpiTransportBase::MpiTransportBase;

  std::shared_ptr<Transport> Split(int first, int last) override {
    // Section-VI nonblocking creation; the contiguous-range fast path
    // completes locally in O(1), so the Wait returns immediately.
    const std::array<mpisim::RankRange, 1> range{
        mpisim::RankRange{first, last, 1}};
    mpisim::Group group = mpisim::GroupRangeIncl(comm_, range);
    mpisim::Comm sub;
    mpisim::Request req =
        mpisim::IcommCreateGroup(comm_, group, /*tag=*/0, &sub);
    mpisim::Wait(req);
    return std::make_shared<IcommTransport>(std::move(sub));
  }

  const char* Name() const override { return "ICOMM"; }
};

}  // namespace

std::shared_ptr<Transport> MakeRbcTransport(rbc::Comm comm) {
  return std::make_shared<RbcTransport>(std::move(comm));
}

std::shared_ptr<Transport> MakeMpiTransport(mpisim::Comm comm) {
  return std::make_shared<MpiTransport>(std::move(comm));
}

std::shared_ptr<Transport> MakeIcommTransport(mpisim::Comm comm) {
  return std::make_shared<IcommTransport>(std::move(comm));
}

void Allreduce(Transport& tr, const void* in, void* out, int count,
               Datatype dt, ReduceOp op, int tag) {
  mpisim::WaitUntil(tr.Ireduce(in, out, count, dt, op, 0, tag),
                    "Allreduce reduce");
  mpisim::WaitUntil(tr.Ibcast(out, count, dt, 0, tag + 1), "Allreduce bcast");
}

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kRbc: return "rbc";
    case Backend::kMpi: return "mpi";
    case Backend::kIcomm: return "icomm";
  }
  return "?";
}

bool ParseBackend(std::string_view name, Backend* out) {
  for (Backend b : {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    if (name == BackendName(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

std::shared_ptr<Transport> MakeTransport(Backend backend,
                                         mpisim::Comm& world) {
  switch (backend) {
    case Backend::kRbc: {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      return MakeRbcTransport(std::move(rw));
    }
    case Backend::kMpi:
      return MakeMpiTransport(world);
    case Backend::kIcomm:
      return MakeIcommTransport(world);
  }
  throw mpisim::UsageError("MakeTransport: unknown backend");
}

}  // namespace jsort
