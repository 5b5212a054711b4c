// The public RBC collectives (Table I and the all-to-all extensions of
// Section V-D): each entry validates the range, records one logical
// collective in the range's sanitizer ledger, and runs or starts one
// schedule of the collective-schedule core (mpisim/schedule.hpp) over the
// range binding (detail::EndpointOf) and TreeFor's tree, on the tags of
// collectives.hpp.
#include "rbc/collectives.hpp"

#include <vector>

#include "rbc/sm.hpp"

namespace rbc {
namespace {

using detail::EndpointOf;
using detail::TreeFor;
using mpisim::detail::AlltoallAlgo;
using sanitize::CollKind;
namespace core = mpisim::detail;

/// Barrier tags of the sparse exchange on payload tag t: kSparseBarrierBase
/// + {2t, 2t + 1}, far above the collective tags of the library's users.
constexpr int kSparseBarrierBase = kReservedTagBase + (1 << 22);
/// Trailing-chunk tag of the sparse exchange on payload tag t:
/// kSparseChunkBase + t.
constexpr int kSparseChunkBase = kReservedTagBase + (1 << 23);

sanitize::OpRecord Op(CollKind kind, int root, int tag, int count,
                      Datatype dt, std::int64_t segment_bytes = 0) {
  return sanitize::MakeOp(kind, root, tag, count,
                          static_cast<std::uint32_t>(mpisim::SizeOf(dt)),
                          segment_bytes);
}

sanitize::OpRecord GathervOp(const Comm& comm, int root, int tag, int count,
                             Datatype dt, std::span<const int> recvcounts) {
  auto rec = Op(CollKind::kGatherv, root, tag, count, dt);
  if (comm.Rank() == root && sanitize::Enabled()) {
    rec.counts_from = sanitize::ToCounts(recvcounts);
  }
  return rec;
}

sanitize::OpRecord AlltoallvOp(int tag, Datatype dt,
                               std::span<const int> sendcounts,
                               std::span<const int> recvcounts,
                               std::int64_t segment_bytes) {
  auto rec = Op(CollKind::kAlltoallv, /*root=*/-1, tag, /*count=*/-1, dt,
                segment_bytes);
  if (sanitize::Enabled()) {
    rec.counts_to = sanitize::ToCounts(sendcounts);
    rec.counts_from = sanitize::ToCounts(recvcounts);
  }
  return rec;
}

core::Schedule Sparse(std::span<const SparseSendBlock> sends, Datatype dt,
                      std::vector<SparseRecvMessage>* received,
                      const Comm& comm, int tag, std::int64_t segment_bytes) {
  const int fence = kSparseBarrierBase + 2 * tag;
  return core::MakeSparseAlltoallv(
      EndpointOf(comm), TreeFor(comm, 0), sends, dt, received,
      {tag, kSparseChunkBase + tag, fence, fence, fence + 1, fence + 1},
      segment_bytes);
}

}  // namespace

int Bcast(void* buffer, int count, Datatype dt, int root, const Comm& comm) {
  detail::ValidateCollective(comm, root, "Bcast");
  auto rec = Op(CollKind::kBcast, root, kTagBcast, count, dt);
  const std::size_t bytes = detail::ByteCount(count, dt);
  if (comm.Rank() == root && sanitize::Enabled()) {
    rec.sig = sanitize::PayloadSignature(buffer, bytes);
  }
  sanitize::CollectiveScope san(comm, std::move(rec));
  core::Run(core::MakeBcast(EndpointOf(comm), TreeFor(comm, root), buffer,
                            count, dt, kTagBcast),
            "rbc: Bcast");
  if (comm.Rank() != root) san.ArmExitSignatureCheck(buffer, bytes);
  return 0;
}

int Ibcast(void* buffer, int count, Datatype dt, int root, const Comm& comm,
           Request* request, int tag) {
  auto rec = Op(CollKind::kBcast, root, tag, count, dt);
  return detail::Start(comm, root, "Ibcast", rec, request, [&] {
    return core::MakeBcast(EndpointOf(comm), TreeFor(comm, root), buffer, count,
                           dt, tag);
  });
}

int Reduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
           ReduceOp op, int root, const Comm& comm) {
  auto rec = Op(CollKind::kReduce, root, kTagReduce, count, dt);
  return detail::Run(comm, root, "Reduce", rec, [&] {
    return core::MakeReduce(EndpointOf(comm), TreeFor(comm, root), sendbuf,
                            recvbuf, count, dt, op, kTagReduce);
  });
}

int Ireduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
            ReduceOp op, int root, const Comm& comm, Request* request,
            int tag) {
  auto rec = Op(CollKind::kReduce, root, tag, count, dt);
  return detail::Start(comm, root, "Ireduce", rec, request, [&] {
    return core::MakeReduce(EndpointOf(comm), TreeFor(comm, root), sendbuf,
                            recvbuf, count, dt, op, tag);
  });
}

int Scan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
         ReduceOp op, const Comm& comm) {
  auto rec = Op(CollKind::kScan, /*root=*/-1, kTagScan, count, dt);
  return detail::Run(comm, 0, "Scan", rec, [&] {
    return core::MakeScan(EndpointOf(comm), sendbuf, recvbuf, count, dt, op,
                          kTagScan);
  });
}

int Iscan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
          ReduceOp op, const Comm& comm, Request* request, int tag) {
  auto rec = Op(CollKind::kScan, /*root=*/-1, tag, count, dt);
  return detail::Start(comm, 0, "Iscan", rec, request, [&] {
    return core::MakeScan(EndpointOf(comm), sendbuf, recvbuf, count, dt, op,
                          tag);
  });
}

int Gather(const void* sendbuf, int count, Datatype dt, void* recvbuf,
           int root, const Comm& comm) {
  auto rec = Op(CollKind::kGather, root, kTagGather, count, dt);
  return detail::Run(comm, root, "Gather", rec, [&] {
    return core::MakeGather(EndpointOf(comm), TreeFor(comm, root), sendbuf,
                            count, dt, recvbuf, kTagGather);
  });
}

int Igather(const void* sendbuf, int count, Datatype dt, void* recvbuf,
            int root, const Comm& comm, Request* request, int tag) {
  auto rec = Op(CollKind::kGather, root, tag, count, dt);
  return detail::Start(comm, root, "Igather", rec, request, [&] {
    return core::MakeGather(EndpointOf(comm), TreeFor(comm, root), sendbuf,
                            count, dt, recvbuf, tag);
  });
}

int Gatherv(const void* sendbuf, int count, Datatype dt, void* recvbuf,
            std::span<const int> recvcounts, std::span<const int> displs,
            int root, const Comm& comm) {
  auto rec = GathervOp(comm, root, kTagGatherv, count, dt, recvcounts);
  return detail::Run(comm, root, "Gatherv", rec, [&] {
    return core::MakeGatherv(EndpointOf(comm), TreeFor(comm, root), sendbuf,
                             count, dt, recvbuf, recvcounts, displs,
                             kTagGatherv);
  });
}

int Igatherv(const void* sendbuf, int count, Datatype dt, void* recvbuf,
             std::span<const int> recvcounts, std::span<const int> displs,
             int root, const Comm& comm, Request* request, int tag) {
  auto rec = GathervOp(comm, root, tag, count, dt, recvcounts);
  return detail::Start(comm, root, "Igatherv", rec, request, [&] {
    return core::MakeGatherv(EndpointOf(comm), TreeFor(comm, root), sendbuf,
                             count, dt, recvbuf, recvcounts, displs, tag);
  });
}

int Barrier(const Comm& comm) {
  auto rec = sanitize::MakeOp(CollKind::kBarrier, /*root=*/-1, kTagBarrierUp);
  return detail::Run(comm, 0, "Barrier", rec, [&] {
    return core::MakeBarrier(EndpointOf(comm), TreeFor(comm, 0), kTagBarrierUp,
                             kTagBarrierDown);
  });
}

int Ibarrier(const Comm& comm, Request* request, int tag) {
  auto rec = sanitize::MakeOp(CollKind::kBarrier, /*root=*/-1, tag);
  return detail::Start(comm, 0, "Ibarrier", rec, request, [&] {
    return core::MakeBarrier(EndpointOf(comm), TreeFor(comm, 0), tag, tag);
  });
}

int Alltoallv(const void* sendbuf, std::span<const int> sendcounts,
              std::span<const int> sdispls, Datatype dt, void* recvbuf,
              std::span<const int> recvcounts, std::span<const int> rdispls,
              const Comm& comm, std::int64_t segment_bytes) {
  auto rec = AlltoallvOp(kTagAlltoallv, dt, sendcounts, recvcounts,
                         segment_bytes);
  return detail::Run(comm, 0, "Alltoallv", rec, [&] {
    return core::MakeAlltoallv(EndpointOf(comm), AlltoallAlgo::kPairwise,
                               sendbuf, sendcounts, sdispls, dt, recvbuf,
                               recvcounts, rdispls, kTagAlltoallv,
                               segment_bytes);
  });
}

int Ialltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, Datatype dt, void* recvbuf,
               std::span<const int> recvcounts, std::span<const int> rdispls,
               const Comm& comm, Request* request, int tag,
               std::int64_t segment_bytes) {
  auto rec = AlltoallvOp(tag, dt, sendcounts, recvcounts, segment_bytes);
  return detail::Start(comm, 0, "Ialltoallv", rec, request, [&] {
    return core::MakeAlltoallv(EndpointOf(comm), AlltoallAlgo::kPairwise,
                               sendbuf, sendcounts, sdispls, dt, recvbuf,
                               recvcounts, rdispls, tag, segment_bytes);
  });
}

int SparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                    std::vector<SparseRecvMessage>* received,
                    const Comm& comm, int tag, std::int64_t segment_bytes) {
  auto rec = Op(CollKind::kSparseAlltoallv, /*root=*/-1, tag, /*count=*/-1,
                dt, segment_bytes);
  return detail::Run(comm, 0, "SparseAlltoallv", rec, [&] {
    return Sparse(sends, dt, received, comm, tag, segment_bytes);
  });
}

int IsparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                     std::vector<SparseRecvMessage>* received,
                     const Comm& comm, Request* request, int tag,
                     std::int64_t segment_bytes) {
  auto rec = Op(CollKind::kSparseAlltoallv, /*root=*/-1, tag, /*count=*/-1,
                dt, segment_bytes);
  return detail::Start(comm, 0, "IsparseAlltoallv", rec, request, [&] {
    return Sparse(sends, dt, received, comm, tag, segment_bytes);
  });
}

}  // namespace rbc
