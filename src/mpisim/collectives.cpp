#include "mpisim/collectives.hpp"

#include <string>

#include "mpisim/error.hpp"
#include "mpisim/sanitizer.hpp"
#include "mpisim/schedule.hpp"

namespace mpisim {
namespace {

using detail::BinomialTreeOf;
using detail::Run;

// Internal tags on the kColl sub-channel.
constexpr int kTagBcast = 1;
constexpr int kTagReduce = 2;
constexpr int kTagGather = 4;
constexpr int kTagAlltoall = 6;

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

void Allreduce(const void* send, void* recv, int count, Datatype dt,
               ReduceOp op, const Comm& comm) {
  Validate(comm, "Allreduce", count);
  sanitize::Scope san(comm, Op(sanitize::CollKind::kAllreduce, /*root=*/-1,
                               /*tag=*/-1, count, dt));
  Run(detail::MakeAllreduce(Coll(comm), TreeOf(comm, 0), send, recv, count,
                            dt, op, kTagReduce, kTagBcast),
      "Allreduce");
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
