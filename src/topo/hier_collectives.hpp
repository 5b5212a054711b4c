// Node-aware hierarchical collectives over RBC communicators.
//
// Built entirely from existing pieces (Section V-D's extension recipe).
// Bcast, allreduce and gatherv elect one leader per node -- the smallest
// group rank of each vnode run (hier_exchange.hpp) -- run a leader-only
// inter-node phase over a binomial tree of the leader list, and
// redistribute inside each node via the flat rbc collectives on
// Split_RBC_Comm vnode sub-ranges (O(1), local). Alltoallv needs no
// leader: it runs the point-to-point engine of hier_exchange.hpp, whose
// inter-node hop is spread over one gateway per (node, remote node)
// pair. On a flat topology (or a single-node communicator) every
// operation degrades to its flat counterpart plus the vnode map's O(size)
// local scan.
//
// Tag reservations (extending the map in rbc/collectives.hpp):
//   kTagHierBcast     = kReservedTagBase + 32
//   kTagHierAllreduce = kReservedTagBase + 33
//   kTagHierGatherv   = kReservedTagBase + 34
//   kTagHierAlltoallv = kReservedTagBase + 35
// Each blocking hierarchical collective owns one exclusive tag for its
// point-to-point traffic; the intra phases of bcast, allreduce and
// gatherv run over vnode sub-communicators with the flat collectives' own
// exclusive tags (the sub-ranges overlap the parent in more than one
// process, but the hierarchical schedule never runs two collectives on
// overlapping ranges concurrently). All three phases of HierAlltoallv
// travel on kTagHierAlltoallv alone: its receives name their sources and
// every pair sends a fixed number of messages per call, so FIFO matching
// keeps back-to-back calls apart without barrier or chunk tags.
//
// Sequence tracking (MPISIM_SANITIZE=1): each public entry records ONE
// logical collective (kHierBcast/kHierAllreduce/kHierGatherv/
// kHierAlltoallv) in the parent communicator's (comm, range) ledger; the
// intra-phase sub-collectives are suppressed by the per-rank depth guard.
// Every record carries the elected leader list -- the vnode starts, from
// which HierAlltoallv derives its gateways too -- in counts_to, so two
// ranks disagreeing about the topology (a leader-rank divergence) raise a
// pairwise "different elected leader sets" mismatch instead of
// deadlocking in the leader or gateway phase.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rbc/rbc.hpp"
#include "topo/hier_exchange.hpp"

namespace topo {

inline constexpr int kTagHierBcast = rbc::kReservedTagBase + 32;
inline constexpr int kTagHierAllreduce = rbc::kReservedTagBase + 33;
inline constexpr int kTagHierGatherv = rbc::kReservedTagBase + 34;
inline constexpr int kTagHierAlltoallv = rbc::kReservedTagBase + 35;

/// Vnode map of an RBC communicator under the calling runtime's installed
/// topology: group ranks are translated to world ranks and grouped into
/// maximal same-node runs. Must be called from a rank thread.
VnodeMap VnodeMapOf(const rbc::Comm& comm);

/// Hierarchical broadcast: intra-node bcast inside the root's node, a
/// binomial tree over the node leaders, then intra-node bcasts. The
/// optional `vn` overrides the runtime-derived vnode map (tests and the
/// sanitizer's leader-divergence smoke inject disagreeing maps with it).
int HierBcast(void* buffer, int count, rbc::Datatype dt, int root,
              const rbc::Comm& comm, const VnodeMap* vn = nullptr);

/// Hierarchical allreduce (commutative ops): intra-node reduce to the
/// leader, reduce + bcast over the leader tree, intra-node bcast.
int HierAllreduce(const void* sendbuf, void* recvbuf, int count,
                  rbc::Datatype dt, rbc::ReduceOp op, const rbc::Comm& comm,
                  const VnodeMap* vn = nullptr);

/// Hierarchical gather with per-rank counts: the root's own node gathers
/// straight into recvbuf; every other node gathers to its leader, which
/// forwards one concatenated message to the root. recvcounts/displs
/// (elements, group-rank indexed) are significant at root only.
int HierGatherv(const void* sendbuf, int count, rbc::Datatype dt,
                void* recvbuf, std::span<const int> recvcounts,
                std::span<const int> displs, int root, const rbc::Comm& comm,
                const VnodeMap* vn = nullptr);

/// Hierarchical personalized all-to-all (dense counts interface, same
/// contract as rbc::Alltoallv): per-destination payloads gather at one
/// gateway per remote node, cross the network once gateway-to-gateway
/// (merged per destination), and are scattered locally -- the three-phase
/// point-to-point engine of hier_exchange.hpp. Delivers byte-identical
/// results to rbc::Alltoallv. segment_bytes > 0 bounds every wire message
/// (the large-message regime).
int HierAlltoallv(const void* sendbuf, std::span<const int> sendcounts,
                  std::span<const int> sdispls, rbc::Datatype dt,
                  void* recvbuf, std::span<const int> recvcounts,
                  std::span<const int> rdispls, const rbc::Comm& comm,
                  std::int64_t segment_bytes = 0,
                  const VnodeMap* vn = nullptr,
                  HierLevelStats* stats = nullptr);

}  // namespace topo
