// Topology-shaped exchange: the byte engine behind the hierarchical
// Alltoallv and exchange::Mode::kHierarchical.
//
// A flat sparse exchange ships one message per non-empty (source,
// destination) pair; with p ranks spread over m nodes, almost all of
// them cross the network. The hierarchical engine routes the same bytes
// in three point-to-point phases so that every inter-node byte travels
// exactly once, inside one bundle per ordered pair of nodes. The bundles
// are spread over the ranks of each node: on vnode u (see VnodeMap; m
// vnodes, s_u ranks on u) the *gateway* for remote vnode w is member
//   ((w - u) mod m - 1) mod s_u,
// so with m - 1 <= s_u every rank carries at most one bundle each way
// (the node-aware exchange of Bienz, Gropp and Olson, JPDC 2019).
//
//   A (intra): every rank sends exactly one message to every other
//     member of its vnode: the direct payload for that member (possibly
//     none) and this rank's pieces for every destination on the remote
//     vnodes that member is the gateway for. Every rank receives exactly
//     s - 1 messages.
//   B (inter): the gateway of u for w merges u's pieces for w PER
//     DESTINATION -- all of u's sources for one destination concatenate,
//     source-ascending, into ONE section -- and trades exactly one
//     bundle, possibly empty, with w's gateway for u.
//   C (intra): each gateway sends every other member of its vnode
//     exactly one message: that member's bytes from each of the
//     gateway's remote vnodes.
//
// Every message is a *sectioned message*
//   [int64 total bytes][int64 section bytes x n][section payloads]
// whose section count n both ends derive from the vnode map, so source
// ranks are never transmitted: vnodes are contiguous rank runs and each
// merged section is internally source-ascending, so the receiver
// reconstructs the global source order from structure alone. Every rank
// finishes with exactly the bytes a flat exchange would have delivered,
// concatenated in source-rank order:
//   result = remote lower vnodes ++ own-vnode direct blocks ++ remote upper.
//
// Termination needs no traffic. Every receive names its source and runs
// in a fixed rotation order, and every (source, destination) pair sends a
// fixed number of messages per exchange (the frames of one message are
// announced by its total), so FIFO matching keeps back-to-back exchanges
// on one tag apart -- no wildcard probe, no barrier, no sparse
// collective. A wire message never exceeds segment_bytes (at least the
// 8-byte total). The first frame of a message is also bounded by
// kFirstFrameBytes; with segment_bytes == 0 only that frame is bounded and
// the rest of a longer message follows as one message. The receiver takes
// every first frame into one reusable, never zero-filled buffer, receives
// the rest in place into one buffer of the message's exact size, and
// hands the sections on as views -- no copy per section.
//
// Cost and scaling limit: a rank pays 2(s - 1) intra-node startups in
// phase A, and in phase C s - 1 sends if it is a gateway plus one receive
// per other gateway of its vnode; a gateway pays 2 ceil((m - 1) / s)
// inter-node startups in phase B, where one leader per node would
// serialize 2(m - 1). Known expectations save the two
// group-wide termination barriers every sparse-collective phase would
// pay. By the same alpha-beta arithmetic, barrier termination of phase B
// would only win at about a hundred nodes or more with sparse traffic,
// when a gateway's ceil((m - 1) / s) bundles are mostly empty.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace topo {

/// Virtual nodes of one communicator/group: maximal runs of group ranks
/// whose world ranks share a node. Ragged sizes, 1-rank nodes and the
/// degenerate single-node case all reduce to runs; a node id appearing in
/// two separate runs (non-contiguous placement) yields two independent
/// vnodes, which keeps every vnode a contiguous rank range -- the
/// property the engine's implicit source ordering relies on.
struct VnodeMap {
  std::vector<int> vnode_of;  // group rank -> vnode index
  std::vector<int> first;     // vnode -> first group rank
  std::vector<int> size;      // vnode -> member count

  int Count() const { return static_cast<int>(first.size()); }
  int LeaderOf(int v) const { return first[v]; }
  bool IsLeader(int r) const { return first[vnode_of[r]] == r; }

  /// Group ranks of all vnode leaders, ascending.
  std::vector<int> Leaders() const { return first; }

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

/// Builds the vnode map from per-group-rank node ids.
inline VnodeMap VnodesOf(std::span<const int> node_of_rank) {
  VnodeMap vn;
  vn.vnode_of.resize(node_of_rank.size());
  for (std::size_t r = 0; r < node_of_rank.size(); ++r) {
    if (r == 0 || node_of_rank[r] != node_of_rank[r - 1]) {
      vn.first.push_back(static_cast<int>(r));
      vn.size.push_back(0);
    }
    vn.vnode_of[r] = static_cast<int>(vn.first.size()) - 1;
    ++vn.size.back();
  }
  return vn;
}

/// One per-destination coalesced outgoing piece (raw bytes). Pieces must
/// be passed dest-ascending with at most one piece per destination; the
/// self-destined piece is legal and handled locally.
struct BytePiece {
  int dest = 0;
  const std::byte* data = nullptr;
  std::int64_t bytes = 0;
};

/// Wire traffic of one hierarchical exchange at this rank, split by
/// level (phases A+C are intra-node, phase B inter-node): every message
/// the engine sends, frames included, and its bytes -- exactly what the
/// substrate's send counters see for the exchange.
struct HierLevelStats {
  std::int64_t intra_messages = 0;
  std::int64_t intra_bytes = 0;
  std::int64_t inter_messages = 0;
  std::int64_t inter_bytes = 0;
};

/// Bound of a message's first frame, the size of the receiver's reusable
/// frame buffer (smaller when segment_bytes is).
inline constexpr std::int64_t kFirstFrameBytes = 65536;

/// The engine's point-to-point seam: `send(dest, data, bytes)` injects
/// one eager wire message to group rank `dest`; `recv(src, buf,
/// capacity)` receives the next wire message from group rank `src` (at
/// most `capacity` bytes) and returns its size. Both run on one tag the
/// caller owns for the duration of the exchange.
struct HierWire {
  std::function<void(int dest, const std::byte* data, int bytes)> send;
  std::function<int(int src, std::byte* buf, int capacity)> recv;
};

/// What one rank received: views in source-rank order, each the
/// concatenation of whole per-source pieces. The views point into
/// `storage`, except the self piece, which views the caller's input.
struct HierReceived {
  std::vector<std::span<const std::byte>> parts;
  std::int64_t bytes = 0;
  std::vector<std::unique_ptr<std::byte[]>> storage;

  /// Copies the parts contiguously to `out` (`bytes` bytes).
  void CopyTo(std::byte* out) const;
};

/// Runs the three-phase hierarchical exchange over `wire`. `pieces` is
/// this rank's per-destination coalesced traffic (dest-ascending, self
/// allowed, zero-byte pieces skipped). Every rank of the group must call
/// it with the same vnode map and segment limit. Returns the received
/// bytes in source-rank order -- byte-identical to a flat exchange of
/// the same pieces.
HierReceived HierExchangeBytes(const VnodeMap& vn, int my_rank,
                               std::span<const BytePiece> pieces,
                               std::int64_t segment_bytes,
                               const HierWire& wire,
                               HierLevelStats* stats = nullptr);

}  // namespace topo
