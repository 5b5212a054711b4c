// Node-aware hierarchical all-to-all over RBC communicators.
//
// Bcast, reduce, allreduce, gather, gatherv and scatter need no separate
// hierarchical form: on a two-level cost model RBC's own tree
// collectives run on node-spread trees (rbc/sm.hpp), which cross the
// network once per node, spread over the root node's members. The
// personalized all-to-all is different in kind: HierAlltoallv runs the
// point-to-point engine of hier_exchange.hpp, whose inter-node hop is
// spread over one gateway per (node, remote node) pair. On a flat
// topology (or a single-node communicator) it degrades to its flat
// counterpart plus the vnode map's O(size) local scan.
//
// Tag reservation (extending the map in rbc/collectives.hpp):
//   kTagHierAlltoallv = kReservedTagBase + 35
// All three phases travel on kTagHierAlltoallv alone: its receives name
// their sources and every pair sends a fixed number of messages per
// call, so FIFO matching keeps back-to-back calls apart without barrier
// or chunk tags. kReservedTagBase + [32, 34] are unassigned.
//
// Sequence tracking (MPISIM_SANITIZE=1): each call records ONE logical
// collective (kHierAlltoallv) in the parent communicator's (comm, range)
// ledger. The record carries the vnode starts -- the elected leader
// list, from which the engine derives its gateways -- in counts_to, so
// two ranks disagreeing about the topology raise a pairwise "different
// elected leader sets" mismatch instead of deadlocking in the gateway
// phase.
#pragma once

#include <cstdint>
#include <span>

#include "rbc/rbc.hpp"
#include "topo/hier_exchange.hpp"

namespace topo {

inline constexpr int kTagHierAlltoallv = rbc::kReservedTagBase + 35;

/// Hierarchical personalized all-to-all (dense counts interface, same
/// contract as rbc::Alltoallv): per-destination payloads gather at one
/// gateway per remote node, cross the network once gateway-to-gateway
/// (merged per destination), and are scattered locally -- the three-phase
/// point-to-point engine of hier_exchange.hpp. Delivers byte-identical
/// results to rbc::Alltoallv. segment_bytes > 0 bounds every wire message
/// (the large-message regime). The optional `vn` overrides the
/// runtime-derived vnode map (the sanitizer's leader-divergence tests
/// inject a disagreeing map with it).
int HierAlltoallv(const void* sendbuf, std::span<const int> sendcounts,
                  std::span<const int> sdispls, rbc::Datatype dt,
                  void* recvbuf, std::span<const int> recvcounts,
                  std::span<const int> rdispls, const rbc::Comm& comm,
                  std::int64_t segment_bytes = 0,
                  const VnodeMap* vn = nullptr,
                  HierLevelStats* stats = nullptr);

}  // namespace topo
