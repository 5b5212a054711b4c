// RBC collective operations (Table I of the paper).
//
// All collectives are implemented with RBC point-to-point communication
// over tree (and, for scan, distance-doubling) schedules -- generic
// patterns, theoretically optimal for small inputs (Section V-D). The
// schedules are the collective-schedule core's (mpisim/schedule.hpp), the
// ones the substrate's collectives run too, bound to the range by
// rbc::detail::EndpointOf (rank translation, membership-filtered probes)
// on the tags below. Nonblocking forms are progressed by rbc::Test;
// blocking forms run the same state machine to completion.
//
// The tree collectives take their tree from rbc::detail::TreeFor (sm.hpp),
// rooted at `root` or, for Barrier, at rank 0. On a flat cost model it is
// the substrate's binomial tree. On a two-level cost model
// (mpisim::CostModel::Hierarchical()) over a range spanning several nodes
// it is a node-spread tree: binomial inside each node, and each member of
// the root's node carries at most one network edge per round, so a
// machine with m nodes of at least m - 1 ranks is crossed once, in
// parallel, where the binomial tree crosses it ceil(log2 m) times in
// series. Children are received one at a time in list order, so model
// time never depends on which message a thread found first. Alltoallv
// runs the core's pairwise schedule. BcastLarge and IscanWithTotal have no
// substrate twin and keep their own state machines: BcastLarge on the
// binomial tree (its ring phase indexes segments by relative rank),
// IscanWithTotal on the in-order binomial tree below.
//
// IscanWithTotal returns the inclusive prefix and the total together from
// one up-sweep/down-sweep: each rank takes its children's subtree sums one
// at a time, in increasing extent, folds them with its own value in rank
// order and sends the result to its parent; then each rank sends every
// child, the largest subtree first, [prefix before that child's run,
// total]. That is 2(p-1) messages over 2 ceil(log2 p) hops on every cost
// model, against Iscan's distance-doubling rounds plus a broadcast of the
// last rank's prefix. Its tree is mpisim::detail::InOrderBinomialTreeOf,
// not TreeFor's: the binomial shape with every subtree a run of ranks, so
// a prefix is a fold of whole subtree sums (a node-spread tree's subtrees
// are not runs). Its root sits inside the range, with subtrees on both
// sides, and ranks 0 and p-1 are leaves: JQuick's janus processes sit at
// the ends of two tasks' ranges, and as leaves they send one message up
// and receive one down per sweep and forward nothing, where a root at
// rank 0 would take and send ceil(log2 p) messages while also serving its
// other task. On a flat cost model the tree, a relabelling of the
// binomial tree rooted at rank 0, ends exactly when that tree would.
// An optional rider (ScanRider) travels in the same messages: a second
// block with its own count, datatype and operator, folded beside the scan
// block on the way up and returned as a total alone (allreduce semantics,
// no prefix) on the way down. It adds bytes, never messages or hops:
// JQuick's pivot candidates ride its count sweeps this way, and its root
// task's ride a sweep with no scan block at all.
//
// Tags: each blocking collective uses one distinct exclusive reserved tag;
// each nonblocking collective defaults to its own reserved tag but accepts
// a user-supplied tag (last parameter), which avoids interference between
// simultaneous nonblocking collectives on overlapping RBC communicators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rbc/comm.hpp"
#include "rbc/request.hpp"
#include "rbc/tags.hpp"

namespace rbc {

/// Broadcast from RBC rank `root` to all ranks of the range.
int Bcast(void* buffer, int count, Datatype dt, int root, const Comm& comm);
int Ibcast(void* buffer, int count, Datatype dt, int root, const Comm& comm,
           Request* request, int tag = RBC_IBCAST_TAG);

/// Element-wise reduction to `root` (commutative operators).
int Reduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
           ReduceOp op, int root, const Comm& comm);
int Ireduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
            ReduceOp op, int root, const Comm& comm, Request* request,
            int tag = RBC_IREDUCE_TAG);

/// Inclusive prefix reduction.
int Scan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
         ReduceOp op, const Comm& comm);
int Iscan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
          ReduceOp op, const Comm& comm, Request* request,
          int tag = RBC_ISCAN_TAG);

/// Gather of uniform blocks to `root` (recvbuf: Size()*count elements,
/// ordered by RBC rank; significant at root only).
int Gather(const void* sendbuf, int count, Datatype dt, void* recvbuf,
           int root, const Comm& comm);
int Igather(const void* sendbuf, int count, Datatype dt, void* recvbuf,
            int root, const Comm& comm, Request* request,
            int tag = RBC_IGATHER_TAG);

/// Gather with per-rank counts; recvcounts/displs (elements) significant
/// at root only.
int Gatherv(const void* sendbuf, int count, Datatype dt, void* recvbuf,
            std::span<const int> recvcounts, std::span<const int> displs,
            int root, const Comm& comm);
int Igatherv(const void* sendbuf, int count, Datatype dt, void* recvbuf,
             std::span<const int> recvcounts, std::span<const int> displs,
             int root, const Comm& comm, Request* request,
             int tag = RBC_IGATHERV_TAG);

/// Synchronizes all ranks of the range.
int Barrier(const Comm& comm);
int Ibarrier(const Comm& comm, Request* request, int tag = RBC_IBARRIER_TAG);

// ---------------------------------------------------------------------------
// Extensions beyond Table I. Section V-D: "It is easy to extend our library
// by additional collective operations, e.g., for large input sizes." The
// extensions here are the ones the sorters, the transports and the
// benchmarks call: IscanWithTotal, the large-input BcastLarge, and the
// dense and sparse personalized all-to-alls. They follow the same
// state-machine construction over RBC point-to-point operations and the
// same tag discipline.
// ---------------------------------------------------------------------------

// Reserved-tag map of the extensions. Blocking forms own one exclusive tag
// each in kReservedTagBase + [7, 15], nonblocking defaults live in
// kReservedTagBase + [22, 31]; the slots not named below are unassigned.
// IscanWithTotal has no blocking form; its default tag is kReservedTagBase
// + 31, and its up and down messages share it (they travel in opposite
// directions along each tree edge). Alltoallv uses a single tag: the
// pairwise schedule exchanges at most one message per ordered rank pair
// per operation -- or, in the segmented large-message regime, the
// segments of a pair in strictly increasing order -- so (source, tag) plus
// per-envelope FIFO order is unambiguous; back-to-back operations on the
// same tag are disambiguated the same way.
//
// Derived-tag regions of the sparse exchange (indexed by the exchange's
// payload tag `t`, which RbcTransport passes through raw):
//   * barrier tags:        kReservedTagBase + 2^22 + {2t, 2t+1}
//     (termination barriers A and B of the two-barrier NBX scheme);
//   * chunk-sequence tags: kReservedTagBase + 2^23 + t
//     (trailing payload chunks [int64 seq][payload...] of the chunked
//     large-message protocol; the first chunk of every payload travels on
//     `t` itself as [int64 total bytes][payload...]).
// Simultaneous sparse exchanges on overlapping communicators therefore
// need distinct payload tags, which also keeps their barrier and chunk
// envelopes apart.
//
// kReservedTagBase + [32, 35] are unassigned: the tree collectives above
// need no hierarchical twins, since their node-spread trees run on their
// own tags.
//
// Sequence tracking (MPISIM_SANITIZE=1): every public entry above --
// blocking or nonblocking -- records exactly one logical collective in
// the sanitizer ledger of its (underlying MPI comm, range) pair, keyed by
// the op kind and, among other envelope fields, the tags of this map
// (blocking forms record their exclusive kTag*, nonblocking forms the
// caller-supplied tag). The rules:
//   * one record per public call; the internal schedule's messages,
//     composite sub-collectives (Barrier's reduce+bcast halves) and the
//     sparse exchange's derived-tag fences are never recorded (the core's
//     schedules record nothing);
//   * records of one (comm, range) pair are compared in per-member call
//     order, so members of a range must issue the same collectives in the
//     same order with consistent envelopes -- exactly the agreement the
//     tag discipline above already demands;
//   * distinct ranges over one MPI communicator keep independent
//     sequences: concurrent collectives on disjoint or overlapping
//     ranges are legal (with the usual tag rules) and never compared.
inline constexpr int RBC_IALLTOALLV_TAG = kReservedTagBase + 28;
inline constexpr int RBC_SPARSE_ALLTOALLV_TAG = kReservedTagBase + 29;
inline constexpr int RBC_ISCAN_WITH_TOTAL_TAG = kReservedTagBase + 31;
inline constexpr int kTagBcastLarge = kReservedTagBase + 12;
inline constexpr int kTagAlltoallv = kReservedTagBase + 14;

/// The optional second block of IscanWithTotal: `count` elements of `dt`
/// from `sendbuf`, folded over the whole range with `op`; `totalbuf`
/// receives the total on every rank (no prefix). `sendbuf` may alias
/// `totalbuf`. count == 0 means no rider: the call then moves exactly the
/// bytes of a call without one.
struct ScanRider {
  const void* sendbuf = nullptr;
  void* totalbuf = nullptr;
  int count = 0;
  Datatype dt = Datatype::kByte;
  ReduceOp op = ReduceOp::kSum;
};

/// Inclusive prefix reduction that also returns the total: `inclbuf`
/// receives the fold over ranks 0..Rank(), `totalbuf` the fold over the
/// whole range, on every rank. One up-sweep/down-sweep over the in-order
/// binomial tree (see the top of this file): 2(p-1) messages, with or
/// without a rider, each carrying the rider's block beside the scan's.
/// Every subtree is a run of ranks, folded in rank order, so the lower
/// rank's operand is always the left one; ranks 0 and p-1 are leaves for
/// p >= 3, each sending and receiving one message.
/// `sendbuf` may alias `inclbuf`; `totalbuf` must alias neither, nor the
/// rider's buffers. All members must pass riders of one count and
/// datatype. Nonblocking only.
int IscanWithTotal(const void* sendbuf, void* inclbuf, void* totalbuf,
                   int count, Datatype dt, ReduceOp op, const Comm& comm,
                   Request* request, int tag = RBC_ISCAN_WITH_TOTAL_TAG,
                   const ScanRider& rider = {});

/// Large-input broadcast: binomial scatter of p segments followed by a
/// ring allgather -- 2*beta*l bandwidth instead of the binomial tree's
/// beta*l*log(p), at the price of O(alpha*p) latency. Callers pick the
/// algorithm by payload (bench_ext_bcast_large locates the crossover).
int BcastLarge(void* buffer, int count, Datatype dt, int root,
               const Comm& comm);

/// Personalized all-to-all with per-peer counts/displacements (elements).
/// All four arrays are significant on every rank and sized Size();
/// sendcounts[j] on rank i must equal recvcounts[i] on rank j. The
/// schedule is a hypercube (XOR) pairing for power-of-two ranges and a
/// 1-factorization for general sizes -- p-1 pairwise exchange rounds
/// either way, each round a send/recv with one partner. Zero-count blocks
/// are still transmitted (MPI semantics), so the operation matches
/// mpisim::Alltoallv message for message. With segment_bytes > 0 every
/// per-partner block
/// is pipelined as segments of at most segment_bytes payload bytes (at
/// least one element each), interleaved segment-major across the pairing
/// rounds -- the large-message regime; 0 keeps the one-message-per-pair
/// eager schedule.
int Alltoallv(const void* sendbuf, std::span<const int> sendcounts,
              std::span<const int> sdispls, Datatype dt, void* recvbuf,
              std::span<const int> recvcounts, std::span<const int> rdispls,
              const Comm& comm, std::int64_t segment_bytes = 0);
int Ialltoallv(const void* sendbuf, std::span<const int> sendcounts,
               std::span<const int> sdispls, Datatype dt, void* recvbuf,
               std::span<const int> recvcounts, std::span<const int> rdispls,
               const Comm& comm, Request* request,
               int tag = RBC_IALLTOALLV_TAG, std::int64_t segment_bytes = 0);

/// Sparse-exchange vocabulary, shared with the substrate's collective
/// (mpisim::IsparseAlltoallv): one outgoing block per destination actually
/// sent to (`dest` is an RBC rank here), one message per incoming payload.
using SparseSendBlock = mpisim::SparseSendBlock;
using SparseRecvMessage = mpisim::SparseRecvMessage;

/// Sparse (neighborhood) personalized all-to-all: each rank passes only
/// the destinations it actually sends to -- there is no dense counts round
/// and nothing is transmitted for absent destinations. Receivers discover
/// their senders through membership-filtered wildcard probes; termination
/// is detected with a count of two lightweight barriers (the substrate's
/// eager sends deposit into the destination before the sender enters the
/// first barrier, so barrier completion bounds the messages still owed; the
/// second barrier fences the operation against a back-to-back successor on
/// the same tag). Per rank: one message per listed destination plus
/// O(log p) barrier tokens, instead of the p-1 rounds of Alltoallv.
///
/// `*received` is appended with every incoming message, ordered by source
/// rank (messages from one source stay in send order). A block with
/// dest == Rank() bypasses the transport and is delivered locally. The
/// payload tag also derives the barrier and chunk-sequence tags (see the
/// reserved-tag map above), so simultaneous sparse exchanges on
/// overlapping communicators need distinct tags, like every other RBC
/// collective.
///
/// With segment_bytes > 0 each per-destination payload ships as chunks of
/// at most segment_bytes wire bytes (first chunk [int64 total][payload]
/// on the payload tag, trailing chunks [int64 seq][payload] on the
/// derived chunk tag) instead of one unbounded eager message -- the
/// large-message regime; the caller still receives one delivery per
/// source. The two-barrier fence orders trailing chunks of back-to-back
/// exchanges on one tag exactly as it orders their first chunks.
int SparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                    std::vector<SparseRecvMessage>* received,
                    const Comm& comm, int tag = RBC_SPARSE_ALLTOALLV_TAG,
                    std::int64_t segment_bytes = 0);
int IsparseAlltoallv(std::span<const SparseSendBlock> sends, Datatype dt,
                     std::vector<SparseRecvMessage>* received,
                     const Comm& comm, Request* request,
                     int tag = RBC_SPARSE_ALLTOALLV_TAG,
                     std::int64_t segment_bytes = 0);

}  // namespace rbc
