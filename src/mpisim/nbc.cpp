#include "mpisim/nbc.hpp"

#include <string>
#include <vector>

#include "mpisim/error.hpp"
#include "mpisim/sanitizer.hpp"
#include "mpisim/schedule.hpp"

namespace mpisim {
namespace {

/// Validates the communicator (and root, if any) and records the
/// operation's envelope at initiation: the NBC-tag-counter precondition
/// already requires all ranks to initiate in the same order, so initiation
/// order is the checked sequence. The tag field stays -1: NBC tags come
/// from the synchronized counter and carry no caller intent of their own.
void Start(const Comm& comm, const char* what, sanitize::OpRecord rec,
           int root = 0) {
  if (comm.IsNull()) {
    throw UsageError(std::string(what) + ": null communicator");
  }
  if (root < 0 || root >= comm.Size()) {
    throw UsageError(std::string(what) + ": bad root");
  }
  rec.nonblocking = true;
  sanitize::Scope san(comm, std::move(rec));
}

sanitize::OpRecord Op(sanitize::CollKind kind, int root, int count,
                      Datatype dt, std::int64_t segment_bytes = 0) {
  return sanitize::MakeOp(kind, root, /*tag=*/-1, count,
                          static_cast<std::uint32_t>(SizeOf(dt)),
                          segment_bytes);
}

detail::EndpointPtr Nbc(const Comm& comm) {
  return detail::ChannelEndpoint(comm, Channel::kNbc);
}

detail::Tree TreeOf(const Comm& comm, int root) {
  return detail::BinomialTreeOf(comm.Rank(), comm.Size(), root);
}

int NextTag(const Comm& comm) { return 2 * comm.NextNbcTag(); }

/// A fence draws two counter values, so its two halves run on an (even,
/// odd) tag pair no other operation shares.
int NextTagPair(const Comm& comm) {
  const int t = comm.NextNbcTag();
  comm.NextNbcTag();
  return 2 * t;
}

}  // namespace

Request Ibcast(void* buf, int count, Datatype dt, int root, const Comm& comm) {
  Start(comm, "Ibcast", Op(sanitize::CollKind::kBcast, root, count, dt), root);
  return Request(detail::MakeBcast(Nbc(comm),
                                   TreeOf(comm, root),
                                   buf, count, dt, NextTag(comm)));
}

Request Ireduce(const void* send, void* recv, int count, Datatype dt,
                ReduceOp op, int root, const Comm& comm) {
  Start(comm, "Ireduce", Op(sanitize::CollKind::kReduce, root, count, dt),
        root);
  return Request(detail::MakeReduce(
      Nbc(comm), TreeOf(comm, root), send, recv,
      count, dt, op, NextTag(comm)));
}

Request Iscan(const void* send, void* recv, int count, Datatype dt,
              ReduceOp op, const Comm& comm) {
  Start(comm, "Iscan", Op(sanitize::CollKind::kScan, /*root=*/-1, count, dt));
  return Request(
      detail::MakeScan(Nbc(comm), send, recv, count, dt, op, NextTag(comm)));
}

Request Igather(const void* send, int count, Datatype dt, void* recv,
                int root, const Comm& comm) {
  Start(comm, "Igather", Op(sanitize::CollKind::kGather, root, count, dt),
        root);
  return Request(detail::MakeGather(
      Nbc(comm), TreeOf(comm, root), send, count,
      dt, recv, NextTag(comm)));
}

Request IsparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                         std::vector<SparseRecvMessage>* received,
                         const Comm& comm, std::int64_t segment_bytes) {
  Start(comm, "IsparseAlltoallv",
        Op(sanitize::CollKind::kSparseAlltoallv, /*root=*/-1, /*count=*/-1,
           dt, segment_bytes));
  // All tags are drawn here, in this order, so the counter stays
  // synchronous even while other nonblocking collectives start on the
  // communicator during the exchange.
  const int payload = NextTag(comm);
  const int fence_a = NextTagPair(comm);
  const int fence_b = NextTagPair(comm);
  return Request(detail::MakeSparseAlltoallv(
      Nbc(comm), TreeOf(comm, 0), sends, dt,
      received,
      {payload, payload + 1, fence_a, fence_a + 1, fence_b, fence_b + 1},
      segment_bytes));
}

Request Ialltoallv(const void* send, std::span<const int> sendcounts,
                   std::span<const int> sdispls, Datatype dt, void* recv,
                   std::span<const int> recvcounts,
                   std::span<const int> rdispls, const Comm& comm,
                   std::int64_t segment_bytes) {
  sanitize::OpRecord rec = Op(sanitize::CollKind::kAlltoallv, /*root=*/-1,
                              /*count=*/-1, dt, segment_bytes);
  if (sanitize::Enabled()) {
    rec.counts_to.assign(sendcounts.begin(), sendcounts.end());
    rec.counts_from.assign(recvcounts.begin(), recvcounts.end());
  }
  Start(comm, "Ialltoallv", std::move(rec));
  return Request(detail::MakeAlltoallv(
      Nbc(comm), detail::AlltoallAlgo::kSpread, send, sendcounts, sdispls, dt,
      recv, recvcounts, rdispls, NextTag(comm), segment_bytes));
}

}  // namespace mpisim
