// The collective-schedule core: every tree, scan and all-to-all schedule
// of the substrate's and the RBC library's collectives, written once.
//
// Each schedule is one RequestImpl state machine in the style of Hoefler &
// Lumsdaine's NBC schedules (Section III): a state does its local work
// and ends at its data dependencies; progress happens only inside Test.
// Besides its buffers a schedule takes a Tree (binomial for the substrate,
// which stands for the paper's MPI; rbc::detail::TreeFor's for RBC ranges)
// and an Endpoint, the thin transport binding: a communicator's
// sub-channel (ChannelEndpoint) or an RBC range (rbc::detail::EndpointOf).
// Blocking collectives run the same state machine to completion (Run), so
// a collective's blocking and nonblocking forms leave identical clocks and
// traffic. Callers own argument
// validation, tags and sanitizer records. Tree schedules take children one
// at a time, in list order -- model time never depends on which message a
// thread found first -- and send to children back to front.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/nbc.hpp"
#include "mpisim/request.hpp"

namespace mpisim::detail {

/// One rank's tree in one tree collective. A rank's gather buffer holds
/// its own block, then each child's subtree in list order; the root's is
/// the whole tree in pre-order. (The in-order tree's buffer is its run in
/// rank order instead, and it has no `order`.)
struct Tree {
  int parent = -1;                 // group rank of the parent, -1 at root
  std::vector<int> children;       // group ranks, in list order
  std::vector<int> child_extents;  // subtree sizes, aligned with children
  std::vector<int> child_offsets;  // subtree starts in this rank's buffer
  std::vector<int> order;          // root only: buffer position -> rank

  /// Ranks in this rank's subtree, itself included.
  int Extent() const {
    int e = 1;
    for (int c : child_extents) e += c;
    return e;
  }
};

/// Binomial tree over p ranks, rooted (by rotation) at `root`: children in
/// increasing mask order, the i-th at buffer offset 1 << i; at the root,
/// `order` is the rotation by `root`.
Tree BinomialTreeOf(int rank, int p, int root);

/// The binomial tree over p ranks laid out in order, for scans: the
/// root's child j has extent min(2^j, p - 2^j), as in BinomialTreeOf, but
/// every subtree is a run of ranks. The root's child j lies right of the
/// root for even j and left of it for odd j, runs stacked outward; a run
/// right of the root is BinomialTreeOf on offsets from its first rank, one
/// left of it the mirror image from its last. So the root sits inside the
/// range, and ranks 0 and p - 1 are leaves for every p >= 3. Children are
/// listed in increasing extent (ties in mask order), so a schedule that
/// sends back to front serves the largest subtree first; a child's offset
/// is the start of its run within this rank's run. O(log p) arithmetic
/// per rank.
Tree InOrderBinomialTreeOf(int rank, int p);

/// Point-to-point operations of one group, addressed by group rank. Only
/// the sparse exchange probes kAnySource; the status then names a group
/// rank.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual int Rank() const = 0;
  virtual int Size() const = 0;
  virtual void Send(const void* buf, int count, Datatype dt, int dest,
                    int tag) const = 0;
  virtual Request Irecv(void* buf, int count, Datatype dt, int src,
                        int tag) const = 0;
  virtual bool Iprobe(int src, int tag, Status* st) const = 0;
  /// Receives a message already known to be queued (probed).
  virtual void Recv(void* buf, int count, Datatype dt, int src,
                    int tag) const = 0;
};

using EndpointPtr = std::shared_ptr<const Endpoint>;
using Schedule = std::shared_ptr<RequestImpl>;

/// Binds `comm`'s sub-channel `ch`. With `members`, the group is a subset
/// of `comm`: group rank i is comm rank members[i], the caller is group
/// rank `rank`, and probes must name their source.
EndpointPtr ChannelEndpoint(Comm comm, Channel ch,
                            std::vector<int> members = {}, int rank = -1);

/// Runs a schedule to completion: the blocking form of every collective.
void Run(Schedule sm, std::string_view what);

/// Runs `first`, then the schedule `next()` builds once `first` completed.
Schedule MakeChain(Schedule first, std::function<Schedule()> next);

Schedule MakeBcast(EndpointPtr ep, Tree tree, void* buf, int count,
                   Datatype dt, int tag);
/// Commutative `op`; `recv` is written at the root only (may be null
/// elsewhere) and may alias `send`.
Schedule MakeReduce(EndpointPtr ep, Tree tree, const void* send, void* recv,
                    int count, Datatype dt, ReduceOp op, int tag);
/// The root's `recv` holds Size() * count elements, in rank order.
Schedule MakeGather(EndpointPtr ep, Tree tree, const void* send, int count,
                    Datatype dt, void* recv, int tag);
/// Subtree messages are [int32 n][int32 counts[n]][payload] in pre-order;
/// children's sizes are probed. The root's recvcounts and displs must hold
/// Size() entries (UsageError).
Schedule MakeGatherv(EndpointPtr ep, Tree tree, const void* send, int count,
                     Datatype dt, void* recv,
                     std::span<const int> recvcounts,
                     std::span<const int> displs, int tag);

/// Inclusive scan in Hillis-Steele distance-doubling rounds, all on `tag`:
/// round k receives from rank - 2^k, so the source tells rounds apart.
Schedule MakeScan(EndpointPtr ep, const void* send, void* recv, int count,
                  Datatype dt, ReduceOp op, int tag);

/// Chains over one tree rooted at rank 0: Reduce on `up_tag`, then Bcast
/// on `down_tag` (Allreduce, Barrier), or Gather then Bcast (Allgather).
Schedule MakeAllreduce(EndpointPtr ep, Tree tree, const void* send,
                       void* recv, int count, Datatype dt, ReduceOp op,
                       int up_tag, int down_tag);
Schedule MakeBarrier(EndpointPtr ep, Tree tree, int up_tag, int down_tag);
Schedule MakeAllgather(EndpointPtr ep, Tree tree, const void* send,
                       int count, Datatype dt, void* recv, int up_tag,
                       int down_tag);

/// The two personalized all-to-alls. The four count arrays must hold
/// Size() non-negative entries (UsageError); the own block is copied
/// locally, zero-count blocks ship as empty messages, and with
/// segment_bytes > 0 every block travels as AlltoallvSegmentsOf segments.
///  * Spread (the substrate's, standing for MPI's): every send is injected
///    at start; receives are taken one at a time from rank - 1, rank - 2,
///    ..., each block's segments in order.
///  * Pairwise (RBC's): p - 1 rounds with one partner each (rank XOR r on
///    power-of-two groups, a 1-factorization otherwise), segment-major.
enum class AlltoallAlgo { kSpread, kPairwise };
Schedule MakeAlltoallv(EndpointPtr ep, AlltoallAlgo algo, const void* send,
                       std::span<const int> sendcounts,
                       std::span<const int> sdispls, Datatype dt, void* recv,
                       std::span<const int> recvcounts,
                       std::span<const int> rdispls, int tag,
                       std::int64_t segment_bytes);

/// Tags of one sparse exchange: first chunks, trailing chunks, and the
/// (up, down) tags of its two fences.
struct SparseTags {
  int payload;
  int chunk;
  int fence_a_up, fence_a_down;
  int fence_b_up, fence_b_down;
};

/// Sparse (NBX-style) exchange; protocol and wire format as documented at
/// mpisim::IsparseAlltoallv. The fences are barriers over `fence_tree`
/// (rooted at rank 0). After the first fence the drain takes queued
/// messages in arrival order, then source by source: a membership-filtered
/// wildcard probe (RBC) can miss messages queued behind another range's.
Schedule MakeSparseAlltoallv(EndpointPtr ep, Tree fence_tree,
                             std::span<const SparseSendBlock> sends,
                             Datatype dt,
                             std::vector<SparseRecvMessage>* received,
                             SparseTags tags, std::int64_t segment_bytes);

}  // namespace mpisim::detail
