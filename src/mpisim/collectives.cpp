#include "mpisim/collectives.hpp"

#include <string>

#include "mpisim/error.hpp"
#include "mpisim/sanitizer.hpp"
#include "mpisim/schedule.hpp"

namespace mpisim {
namespace {

using detail::BinomialTreeOf;
using detail::Run;

// Internal tags on the kColl sub-channel. Scan round k runs on
// kTagScanBase + k.
constexpr int kTagBcast = 1;
constexpr int kTagReduce = 2;
constexpr int kTagExscanShift = 3;
constexpr int kTagGather = 4;
constexpr int kTagGatherv = 5;
constexpr int kTagAlltoall = 6;
constexpr int kTagScatter = 7;
constexpr int kTagScanBase = 64;

void Validate(const Comm& comm, const char* what, int count, int root = 0) {
  if (comm.IsNull()) {
    throw UsageError(std::string(what) + ": null communicator");
  }
  if (root < 0 || root >= comm.Size()) {
    throw UsageError(std::string(what) + ": root out of range");
  }
  if (count < 0) throw UsageError(std::string(what) + ": negative count");
}

sanitize::OpRecord Op(sanitize::CollKind kind, int root, int tag, int count,
                      Datatype dt) {
  return sanitize::MakeOp(kind, root, tag, count,
                          static_cast<std::uint32_t>(SizeOf(dt)));
}

detail::EndpointPtr Coll(const Comm& comm) {
  return detail::ChannelEndpoint(comm, Channel::kColl);
}

detail::Tree TreeOf(const Comm& comm, int root) {
  return BinomialTreeOf(comm.Rank(), comm.Size(), root);
}

}  // namespace

void Barrier(const Comm& comm) {
  Validate(comm, "Barrier", 0);
  sanitize::Scope san(comm, sanitize::MakeOp(sanitize::CollKind::kBarrier));
  Run(detail::MakeBarrier(Coll(comm), TreeOf(comm, 0), kTagReduce, kTagBcast),
      "Barrier");
}

void Bcast(void* buf, int count, Datatype dt, int root, const Comm& comm) {
  Validate(comm, "Bcast", count, root);
  sanitize::OpRecord rec =
      Op(sanitize::CollKind::kBcast, root, kTagBcast, count, dt);
  const std::size_t bytes = static_cast<std::size_t>(count) * SizeOf(dt);
  const bool is_root = comm.Rank() == root;
  if (is_root && sanitize::Enabled()) {
    rec.sig = sanitize::PayloadSignature(buf, bytes);
  }
  sanitize::Scope san(comm, std::move(rec));
  if (!is_root) san.ArmExitSignatureCheck(buf, bytes);
  Run(detail::MakeBcast(Coll(comm), TreeOf(comm, root), buf, count, dt,
                        kTagBcast),
      "Bcast");
}

void Reduce(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
            int root, const Comm& comm) {
  Validate(comm, "Reduce", count, root);
  sanitize::Scope san(
      comm, Op(sanitize::CollKind::kReduce, root, kTagReduce, count, dt));
  Run(detail::MakeReduce(Coll(comm), TreeOf(comm, root), send, recv, count,
                         dt, op, kTagReduce),
      "Reduce");
}

void Allreduce(const void* send, void* recv, int count, Datatype dt,
               ReduceOp op, const Comm& comm) {
  Validate(comm, "Allreduce", count);
  sanitize::Scope san(comm, Op(sanitize::CollKind::kAllreduce, /*root=*/-1,
                               /*tag=*/-1, count, dt));
  Run(detail::MakeAllreduce(Coll(comm), TreeOf(comm, 0), send, recv, count,
                            dt, op, kTagReduce, kTagBcast),
      "Allreduce");
}

void Scan(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
          const Comm& comm) {
  Validate(comm, "Scan", count);
  sanitize::Scope san(comm, Op(sanitize::CollKind::kScan, /*root=*/-1,
                               kTagScanBase, count, dt));
  Run(detail::MakeScan(Coll(comm), send, recv, count, dt, op, kTagScanBase,
                       /*tag_step=*/1),
      "Scan");
}

void Exscan(const void* send, void* recv, int count, Datatype dt, ReduceOp op,
            const Comm& comm) {
  Validate(comm, "Exscan", count);
  sanitize::Scope san(comm, Op(sanitize::CollKind::kExscan, /*root=*/-1,
                               kTagExscanShift, count, dt));
  Run(detail::MakeExscan(Coll(comm), send, recv, count, dt, op, kTagScanBase,
                         /*scan_tag_step=*/1, kTagExscanShift),
      "Exscan");
}

void Gather(const void* send, int count, Datatype dt, void* recv, int root,
            const Comm& comm) {
  Validate(comm, "Gather", count, root);
  sanitize::Scope san(
      comm, Op(sanitize::CollKind::kGather, root, kTagGather, count, dt));
  Run(detail::MakeGather(Coll(comm), TreeOf(comm, root), send, count, dt, recv,
                         kTagGather),
      "Gather");
}

void Gatherv(const void* send, int count, Datatype dt, void* recv,
             std::span<const int> recvcounts, std::span<const int> displs,
             int root, const Comm& comm) {
  Validate(comm, "Gatherv", count, root);
  sanitize::OpRecord rec =
      Op(sanitize::CollKind::kGatherv, root, kTagGatherv, count, dt);
  if (sanitize::Enabled() && comm.Rank() == root) {
    rec.counts_from.assign(recvcounts.begin(), recvcounts.end());
  }
  sanitize::Scope san(comm, std::move(rec));
  Run(detail::MakeGatherv(Coll(comm), TreeOf(comm, root), send, count, dt,
                          recv, recvcounts, displs, kTagGatherv),
      "Gatherv");
}

void Allgather(const void* send, int count, Datatype dt, void* recv,
               const Comm& comm) {
  Validate(comm, "Allgather", count);
  sanitize::Scope san(comm, Op(sanitize::CollKind::kAllgather, /*root=*/-1,
                               /*tag=*/-1, count, dt));
  Run(detail::MakeAllgather(Coll(comm), TreeOf(comm, 0), send, count, dt,
                            recv, kTagGather, kTagBcast),
      "Allgather");
}

void Scatter(const void* send, int count, Datatype dt, void* recv, int root,
             const Comm& comm) {
  Validate(comm, "Scatter", count, root);
  sanitize::Scope san(
      comm, Op(sanitize::CollKind::kScatter, root, kTagScatter, count, dt));
  Run(detail::MakeScatter(Coll(comm), TreeOf(comm, root), send, count, dt,
                          recv, kTagScatter),
      "Scatter");
}

void Alltoall(const void* send, int count, Datatype dt, void* recv,
              const Comm& comm) {
  Validate(comm, "Alltoall", count);
  sanitize::Scope san(comm, Op(sanitize::CollKind::kAlltoall, /*root=*/-1,
                               kTagAlltoall, count, dt));
  Run(detail::MakeAlltoall(Coll(comm), detail::AlltoallAlgo::kSpread, send,
                           count, dt, recv, kTagAlltoall),
      "Alltoall");
}

void Alltoallv(const void* send, std::span<const int> sendcounts,
               std::span<const int> sdispls, Datatype dt, void* recv,
               std::span<const int> recvcounts, std::span<const int> rdispls,
               const Comm& comm) {
  Validate(comm, "Alltoallv", 0);
  sanitize::OpRecord rec = sanitize::MakeOp(
      sanitize::CollKind::kAlltoallv, /*root=*/-1, kTagAlltoall,
      /*count=*/-1, static_cast<std::uint32_t>(SizeOf(dt)));
  if (sanitize::Enabled()) {
    rec.counts_to.assign(sendcounts.begin(), sendcounts.end());
    rec.counts_from.assign(recvcounts.begin(), recvcounts.end());
  }
  sanitize::Scope san(comm, std::move(rec));
  Run(detail::MakeAlltoallv(Coll(comm), detail::AlltoallAlgo::kSpread, send,
                            sendcounts, sdispls, dt, recv, recvcounts,
                            rdispls, kTagAlltoall, /*segment_bytes=*/0),
      "Alltoallv");
}

}  // namespace mpisim
