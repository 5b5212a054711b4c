// Machine-topology descriptor for the node-aware hierarchical transport.
//
// The paper models the machine as flat single-ported alpha-beta, but its
// multilevel algorithms exist precisely because real machines are not
// flat: ranks on the same node talk over shared memory (cheap alpha,
// cheap beta), ranks on different nodes over the network (expensive
// both). This descriptor names that two-level structure: a partition of
// the world ranks into *nodes*, each node a contiguous block of world
// ranks (the layout every block-cyclic launcher produces). It is pure
// data -- installed into mpisim::Runtime::Options, consulted by the
// substrate's cost seams, by RBC's tree builder and by the hierarchical
// exchange.
//
// An empty topology means "flat machine": every rank on node 0, no
// hierarchical cost distinction, hierarchical paths degrade to their flat
// counterparts.
//
// VnodeMap is the one view of a *group* (a communicator's ranks) on the
// machine, and GatewayOf the one rule for which member of a node carries
// its traffic to another node. The hierarchical exchange engine, RBC's
// node-spread trees and the sorters' topology-derived choices all read
// them from here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace topo {

/// Partition of world ranks [0, p) into contiguous node blocks.
/// node_sizes[i] ranks belong to node i; sizes may be ragged (and 1-rank
/// nodes are legal). Empty node_sizes = flat machine.
class Topology {
 public:
  Topology() = default;

  /// Flat machine: no node structure.
  static Topology Flat() { return Topology(); }

  /// p ranks in nodes of `node_size` each; the last node takes the
  /// remainder when node_size does not divide p.
  static Topology Uniform(int p, int node_size) {
    Topology t;
    if (node_size <= 0) return t;
    for (int first = 0; first < p; first += node_size) {
      t.node_sizes_.push_back(std::min(node_size, p - first));
    }
    t.RebuildFirsts();
    return t;
  }

  /// Explicit (possibly ragged) node sizes; every entry must be >= 1.
  static Topology OfNodeSizes(std::vector<int> node_sizes) {
    Topology t;
    t.node_sizes_ = std::move(node_sizes);
    t.RebuildFirsts();
    return t;
  }

  /// True when no node structure is declared.
  bool Empty() const { return node_sizes_.empty(); }

  /// Number of declared nodes (0 when flat).
  int NodeCount() const { return static_cast<int>(node_sizes_.size()); }

  /// Total ranks covered by the declared nodes.
  int TotalRanks() const { return total_; }

  /// Node of a world rank. Flat topology: everything is node 0.
  /// O(log nodes) binary search over the block starts.
  int NodeOf(int world_rank) const {
    if (Empty()) return 0;
    int lo = 0;
    int hi = NodeCount() - 1;
    while (lo < hi) {
      const int mid = (lo + hi + 1) / 2;
      if (node_firsts_[mid] <= world_rank) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }

  /// First world rank of a node.
  int NodeFirst(int node) const { return node_firsts_[node]; }

  /// Ranks on a node.
  int NodeSize(int node) const { return node_sizes_[node]; }

  /// Validates internal consistency against a world of `p` ranks; returns
  /// an empty string when valid, else a diagnostic.
  std::string Validate(int p) const {
    if (Empty()) return {};
    for (std::size_t i = 0; i < node_sizes_.size(); ++i) {
      if (node_sizes_[i] < 1) {
        return "topology: node " + std::to_string(i) + " has size " +
               std::to_string(node_sizes_[i]) + " (must be >= 1)";
      }
    }
    if (TotalRanks() != p) {
      return "topology: node sizes cover " + std::to_string(TotalRanks()) +
             " ranks but the runtime has " + std::to_string(p);
    }
    return {};
  }

  const std::vector<int>& NodeSizes() const { return node_sizes_; }

 private:
  void RebuildFirsts() {
    node_firsts_.clear();
    int acc = 0;
    for (int s : node_sizes_) {
      node_firsts_.push_back(acc);
      acc += s;
    }
    total_ = acc;
  }

  std::vector<int> node_sizes_;
  std::vector<int> node_firsts_;  // first world rank of each node
  int total_ = 0;
};

/// Virtual nodes of one communicator/group: maximal runs of group ranks
/// whose world ranks share a node. Ragged sizes, 1-rank nodes and the
/// degenerate single-node case all reduce to runs; a node id appearing in
/// two separate runs (non-contiguous placement) yields two independent
/// vnodes, which keeps every vnode a contiguous rank range -- the
/// property the exchange engine's implicit source ordering relies on.
struct VnodeMap {
  std::vector<int> vnode_of;  // group rank -> vnode index
  std::vector<int> first;     // vnode -> first group rank
  std::vector<int> size;      // vnode -> member count

  int Count() const { return static_cast<int>(first.size()); }

  /// Group rank of vnode u's gateway for remote vnode w != u: member
  /// ((w - u) mod m - 1) mod size(u).
  int GatewayOf(int u, int w) const {
    const int m = Count();
    const int d = ((w - u) % m + m) % m;
    return first[u] + (d - 1) % size[u];
  }

  /// Number of gateways on vnode u: its first min(m - 1, size(u))
  /// members.
  int GatewayCount(int u) const { return std::min(Count() - 1, size[u]); }
};

/// Builds the vnode map of a group of `size` ranks; `node_of(r)` names
/// the node of group rank r.
template <class NodeOfRank>
VnodeMap VnodesOf(int size, const NodeOfRank& node_of) {
  VnodeMap vn;
  vn.vnode_of.resize(static_cast<std::size_t>(size));
  int prev = 0;
  for (int r = 0; r < size; ++r) {
    const int node = node_of(r);
    if (r == 0 || node != prev) {
      vn.first.push_back(r);
      vn.size.push_back(0);
    }
    prev = node;
    vn.vnode_of[static_cast<std::size_t>(r)] =
        static_cast<int>(vn.first.size()) - 1;
    ++vn.size.back();
  }
  return vn;
}

/// Builds the vnode map from per-group-rank node ids.
inline VnodeMap VnodesOf(std::span<const int> node_of_rank) {
  return VnodesOf(static_cast<int>(node_of_rank.size()), [&](int r) {
    return node_of_rank[static_cast<std::size_t>(r)];
  });
}

}  // namespace topo
