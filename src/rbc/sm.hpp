// Shared internals of the RBC collectives: the range binding of the
// collective-schedule core (mpisim/schedule.hpp), the one tree builder,
// and the public entries' common tail.
#pragma once

#include <string>
#include <utility>

#include "mpisim/runtime.hpp"
#include "mpisim/schedule.hpp"
#include "rbc/p2p.hpp"
#include "rbc/request.hpp"
#include "rbc/sanitize.hpp"
#include "topo/topology.hpp"

namespace rbc::detail {

using mpisim::detail::BinomialTreeOf;
using mpisim::detail::Tree;

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
  return BinomialTreeOf(comm.Rank(), comm.Size(), root);
}

/// The range binding of the schedule core: RBC ranks translate to ranks of
/// the underlying MPI communicator, on its user channel, and wildcard
/// probes see only messages from members (Section V-C).
mpisim::detail::EndpointPtr EndpointOf(const Comm& comm);

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

/// The tail of a blocking public entry: validates, records `rec` as one
/// logical collective of the range, and runs the schedule `make()` builds
/// to completion.
template <typename Make>
int Run(const Comm& comm, int root, const char* op,
        mpisim::sanitize::OpRecord rec, Make make) {
  ValidateCollective(comm, root, op);
  sanitize::CollectiveScope san(comm, std::move(rec));
  mpisim::detail::Run(make(), std::string("rbc: ") + op);
  return 0;
}

/// The tail of a nonblocking public entry: as Run, but the schedule is
/// handed to *request and the record is marked nonblocking.
template <typename Make>
int Start(const Comm& comm, int root, const char* op,
          mpisim::sanitize::OpRecord rec, Request* request, Make make) {
  ValidateCollective(comm, root, op);
  if (request == nullptr) {
    throw mpisim::UsageError(std::string("rbc::") + op + ": null request");
  }
  rec.nonblocking = true;
  sanitize::CollectiveScope san(comm, std::move(rec));
  *request = Request(make());
  return 0;
}

}  // namespace rbc::detail
