// Shared internals of the RBC collective state machines.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mpisim/nbc.hpp"  // for the binomial tree topology helper
#include "mpisim/runtime.hpp"
#include "rbc/p2p.hpp"
#include "rbc/request.hpp"
#include "topo/topology.hpp"

namespace rbc::detail {

/// The tree of one rank in one tree collective, with explicit placement.
/// A rank's gather buffer holds its own block followed by each child's
/// subtree, in list order; the buffer of the root is the whole tree in
/// pre-order. Bcast and Scatter send to the children back to front;
/// Gather, Gatherv and Reduce receive them front to back, one at a time.
struct Tree {
  int parent = -1;                 // RBC rank of the parent, -1 at root
  std::vector<int> children;       // RBC ranks, in list order
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

/// Binomial tree in RBC rank space, rooted (by rotation) at `root`:
/// children in increasing mask order, the i-th at buffer offset 1 << i.
/// The shape of every tree collective on a flat cost model, of each
/// node's part of a node-spread tree, and of BcastLarge's scatter (whose
/// ring phase indexes segments by relative rank). `order` stays empty.
inline Tree BinomialTreeOf(int rank, int p, int root) {
  auto b = mpisim::detail::BinomialTree::Compute(rank, p, root);
  Tree t;
  t.parent = b.parent;
  t.children = std::move(b.children);
  t.child_extents = std::move(b.child_extents);
  t.child_offsets.reserve(t.children.size());
  for (std::size_t i = 0; i < t.children.size(); ++i) {
    t.child_offsets.push_back(1 << i);
  }
  return t;
}

/// Vnode map of an RBC communicator under the calling runtime's installed
/// topology (topo/topology.hpp). Purely local: every member computes the
/// identical map. Must be called from a rank thread.
topo::VnodeMap VnodesOf(const Comm& comm);

/// Node-spread tree over a group spanning more than one vnode: a binomial
/// tree inside every vnode, rooted at that vnode's local root (on the
/// root's vnode u, the root itself), and network edges between local
/// roots grown in rounds. In round 1 member i of u serves the vnode at
/// distance i + 1 -- the exchange engine's gateway edge GatewayOf(u, w)
/// -> GatewayOf(w, u). In every later round each member of every vnode
/// already reached serves at most one vnode not yet reached, so the
/// reached set at least doubles per round: the inter-node depth is 1
/// when m - 1 <= size(u) and never exceeds ceil(log2 m). A rank lists its
/// network edges from the last round to the first, then its intra-node
/// children in increasing mask order.
Tree NodeSpreadTree(const topo::VnodeMap& vn, int rank, int root);

/// The one tree builder of the RBC tree collectives. On a flat cost
/// model, or over a group inside one vnode, it is exactly the binomial
/// tree, and the root's order is the rotation by `root`. On a two-level
/// cost model over a group spanning several vnodes it is the node-spread
/// tree, which crosses the network once per vnode, in parallel where the
/// root's node has the members for it.
inline Tree TreeFor(const Comm& comm, int root) {
  if (mpisim::Ctx().runtime->options().cost.Hierarchical()) {
    const topo::VnodeMap vn = VnodesOf(comm);
    if (vn.Count() > 1) return NodeSpreadTree(vn, comm.Rank(), root);
  }
  Tree t = BinomialTreeOf(comm.Rank(), comm.Size(), root);
  if (t.parent < 0) {
    const int p = comm.Size();
    t.order.resize(static_cast<std::size_t>(p));
    for (int pos = 0; pos < p; ++pos) {
      t.order[static_cast<std::size_t>(pos)] = (pos + root) % p;
    }
  }
  return t;
}

inline std::size_t ByteCount(int count, Datatype dt) {
  if (count < 0) {
    throw mpisim::UsageError("rbc collective: negative count");
  }
  return static_cast<std::size_t>(count) * mpisim::SizeOf(dt);
}

inline void ValidateCollective(const Comm& comm, int root, const char* op) {
  if (comm.IsNull()) {
    throw mpisim::UsageError(std::string("rbc::") + op +
                             ": null communicator");
  }
  if (comm.Rank() < 0) {
    throw mpisim::UsageError(std::string("rbc::") + op +
                             ": caller not in communicator");
  }
  if (root < 0 || root >= comm.Size()) {
    throw mpisim::UsageError(std::string("rbc::") + op + ": bad root");
  }
}

/// Runs a freshly-built state machine to completion (the blocking form of
/// every RBC collective is its nonblocking form plus Wait, which matches
/// the paper's "implemented with point-to-point communication provided by
/// the RBC library"). `what` names the wait ("rbc: Bcast", ...).
void RunToCompletion(std::shared_ptr<RequestImpl> sm, std::string_view what);

/// Cross-file state-machine factories (barrier chains reduce + bcast).
std::shared_ptr<RequestImpl> MakeReduceSM(const void* send, void* recv,
                                          int count, Datatype dt, ReduceOp op,
                                          int root, const Comm& comm,
                                          int tag);
std::shared_ptr<RequestImpl> MakeBcastSM(void* buf, int count, Datatype dt,
                                         int root, const Comm& comm, int tag);
/// Bare barrier schedule (up and down share `tag`). Internal consumers
/// (the sparse-exchange fences) use this instead of the public Ibarrier so
/// the sanitizer never sees a schedule's internal fence as a user
/// collective.
std::shared_ptr<RequestImpl> MakeBarrierSM(const Comm& comm, int tag);

}  // namespace rbc::detail
