#include "topo/hier_collectives.hpp"

#include <algorithm>
#include <cstring>

#include "mpisim/datatype.hpp"
#include "mpisim/nbc.hpp"
#include "mpisim/runtime.hpp"
#include "rbc/collectives.hpp"
#include "rbc/p2p.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace topo {
namespace {

using rbc::Comm;
using rbc::Datatype;
using rbc::ReduceOp;
using rbc::sanitize::CollKind;

std::vector<std::int64_t> LeadersOf(const VnodeMap& vn) {
  return std::vector<std::int64_t>(vn.first.begin(), vn.first.end());
}

/// Vnode sub-communicator of the calling rank (O(1), local).
Comm SubOf(const Comm& comm, const VnodeMap& vn, int v) {
  Comm sub;
  rbc::Split_RBC_Comm(comm, vn.first[v], vn.first[v] + vn.size[v] - 1, &sub);
  return sub;
}

}  // namespace

VnodeMap VnodeMapOf(const rbc::Comm& comm) {
  mpisim::RankContext& rc = mpisim::Ctx();
  std::vector<int> nodes(static_cast<std::size_t>(comm.Size()));
  for (int r = 0; r < comm.Size(); ++r) {
    nodes[static_cast<std::size_t>(r)] =
        rc.runtime->NodeOf(comm.Mpi().WorldRank(comm.ToMpi(r)));
  }
  return VnodesOf(nodes);
}

int HierBcast(void* buffer, int count, rbc::Datatype dt, int root,
              const rbc::Comm& comm, const VnodeMap* vn_in) {
  rbc::detail::ValidateCollective(comm, root, "HierBcast");
  const VnodeMap vn = vn_in != nullptr ? *vn_in : VnodeMapOf(comm);
  const int me = comm.Rank();
  const std::size_t bytes = rbc::detail::ByteCount(count, dt);
  auto rec = rbc::sanitize::MakeOp(CollKind::kHierBcast, root, kTagHierBcast,
                                   count,
                                   static_cast<std::uint32_t>(SizeOf(dt)));
  if (rbc::sanitize::Enabled()) {
    rec.counts_to = LeadersOf(vn);
    if (me == root) rec.sig = rbc::sanitize::PayloadSignature(buffer, bytes);
  }
  rbc::sanitize::CollectiveScope scope(comm, std::move(rec));
  if (me != root) scope.ArmExitSignatureCheck(buffer, bytes);

  const int v = vn.vnode_of[me];
  const int v_root = vn.vnode_of[root];
  const Comm sub = SubOf(comm, vn, v);
  // The root's node fills in first (its leader needs the payload before
  // the leader tree), every other node redistributes after.
  if (v == v_root && vn.size[v] > 1) {
    rbc::Bcast(buffer, count, dt, root - vn.first[v], sub);
  }
  if (me == vn.LeaderOf(v) && vn.Count() > 1) {
    const auto tree =
        mpisim::detail::BinomialTree::Compute(v, vn.Count(), v_root);
    if (tree.parent >= 0) {
      rbc::detail::RecvInternal(buffer, count, dt, vn.LeaderOf(tree.parent),
                                kTagHierBcast, comm);
    }
    for (int child : tree.children) {
      rbc::detail::SendInternal(buffer, count, dt, vn.LeaderOf(child),
                                kTagHierBcast, comm);
    }
  }
  if (v != v_root && vn.size[v] > 1) {
    rbc::Bcast(buffer, count, dt, /*root=*/0, sub);
  }
  return 0;
}

int HierAllreduce(const void* sendbuf, void* recvbuf, int count,
                  rbc::Datatype dt, rbc::ReduceOp op, const rbc::Comm& comm,
                  const VnodeMap* vn_in) {
  rbc::detail::ValidateCollective(comm, /*root=*/0, "HierAllreduce");
  const VnodeMap vn = vn_in != nullptr ? *vn_in : VnodeMapOf(comm);
  const int me = comm.Rank();
  const std::size_t bytes = rbc::detail::ByteCount(count, dt);
  auto rec = rbc::sanitize::MakeOp(CollKind::kHierAllreduce, /*root=*/-1,
                                   kTagHierAllreduce, count,
                                   static_cast<std::uint32_t>(SizeOf(dt)));
  if (rbc::sanitize::Enabled()) rec.counts_to = LeadersOf(vn);
  rbc::sanitize::CollectiveScope scope(comm, std::move(rec));

  const int v = vn.vnode_of[me];
  const Comm sub = SubOf(comm, vn, v);
  if (vn.size[v] > 1) {
    rbc::Reduce(sendbuf, recvbuf, count, dt, op, /*root=*/0, sub);
  } else if (bytes != 0) {
    std::memcpy(recvbuf, sendbuf, bytes);
  }
  if (me == vn.LeaderOf(v) && vn.Count() > 1) {
    const auto tree = mpisim::detail::BinomialTree::Compute(v, vn.Count(),
                                                            /*root=*/0);
    std::vector<std::byte> partial(bytes);
    for (int child : tree.children) {
      rbc::detail::RecvInternal(partial.data(), count, dt,
                                vn.LeaderOf(child), kTagHierAllreduce, comm);
      mpisim::ApplyReduce(op, dt, partial.data(), recvbuf, count);
    }
    if (tree.parent >= 0) {
      rbc::detail::SendInternal(recvbuf, count, dt, vn.LeaderOf(tree.parent),
                                kTagHierAllreduce, comm);
      rbc::detail::RecvInternal(recvbuf, count, dt, vn.LeaderOf(tree.parent),
                                kTagHierAllreduce, comm);
    }
    for (int child : tree.children) {
      rbc::detail::SendInternal(recvbuf, count, dt, vn.LeaderOf(child),
                                kTagHierAllreduce, comm);
    }
  }
  if (vn.size[v] > 1) {
    rbc::Bcast(recvbuf, count, dt, /*root=*/0, sub);
  }
  return 0;
}

int HierGatherv(const void* sendbuf, int count, rbc::Datatype dt,
                void* recvbuf, std::span<const int> recvcounts,
                std::span<const int> displs, int root, const rbc::Comm& comm,
                const VnodeMap* vn_in) {
  rbc::detail::ValidateCollective(comm, root, "HierGatherv");
  const VnodeMap vn = vn_in != nullptr ? *vn_in : VnodeMapOf(comm);
  const int me = comm.Rank();
  const std::size_t esz = SizeOf(dt);
  auto rec = rbc::sanitize::MakeOp(CollKind::kHierGatherv, root,
                                   kTagHierGatherv, count,
                                   static_cast<std::uint32_t>(esz));
  if (rbc::sanitize::Enabled()) {
    rec.counts_to = LeadersOf(vn);
    if (me == root) rec.counts_from = rbc::sanitize::ToCounts(recvcounts);
  }
  rbc::sanitize::CollectiveScope scope(comm, std::move(rec));

  const int v = vn.vnode_of[me];
  const int v_root = vn.vnode_of[root];
  const Comm sub = SubOf(comm, vn, v);
  auto* out = static_cast<std::byte*>(recvbuf);

  if (v == v_root) {
    // The root's own node gathers straight into recvbuf: the sub-Gatherv
    // takes the absolute displacements, so members land in place.
    if (vn.size[v] > 1) {
      std::vector<int> rc, rd;
      if (me == root) {
        rc.reserve(static_cast<std::size_t>(vn.size[v]));
        rd.reserve(static_cast<std::size_t>(vn.size[v]));
        for (int i = 0; i < vn.size[v]; ++i) {
          rc.push_back(recvcounts[static_cast<std::size_t>(vn.first[v] + i)]);
          rd.push_back(displs[static_cast<std::size_t>(vn.first[v] + i)]);
        }
      }
      rbc::Gatherv(sendbuf, count, dt, recvbuf, rc, rd, root - vn.first[v],
                   sub);
    } else if (count != 0) {
      std::memcpy(out + static_cast<std::size_t>(
                            displs[static_cast<std::size_t>(root)]) * esz,
                  sendbuf, static_cast<std::size_t>(count) * esz);
    }
  } else {
    // Everyone else gathers to the node leader (contribution counts
    // first -- recvcounts is significant at the global root only), and
    // the leader forwards one concatenated message to the root.
    const bool leader = me == vn.LeaderOf(v);
    std::vector<int> member_counts(
        leader ? static_cast<std::size_t>(vn.size[v]) : 0);
    rbc::Gather(&count, 1, Datatype::kInt32, member_counts.data(), /*root=*/0,
                sub);
    std::vector<int> bd;
    int total = 0;
    if (leader) {
      bd.reserve(member_counts.size());
      for (int c : member_counts) {
        bd.push_back(total);
        total += c;
      }
    }
    std::vector<std::byte> blob(static_cast<std::size_t>(total) * esz);
    rbc::Gatherv(sendbuf, count, dt, blob.data(), member_counts, bd,
                 /*root=*/0, sub);
    if (leader) {
      rbc::detail::SendInternal(blob.data(), total, dt, root, kTagHierGatherv,
                                comm);
    }
  }
  if (me == root) {
    for (int u = 0; u < vn.Count(); ++u) {
      if (u == v_root) continue;
      int total_u = 0;
      for (int i = 0; i < vn.size[u]; ++i) {
        total_u += recvcounts[static_cast<std::size_t>(vn.first[u] + i)];
      }
      std::vector<std::byte> blob(static_cast<std::size_t>(total_u) * esz);
      rbc::detail::RecvInternal(blob.data(), total_u, dt, vn.LeaderOf(u),
                                kTagHierGatherv, comm);
      std::size_t off = 0;
      for (int i = 0; i < vn.size[u]; ++i) {
        const auto m = static_cast<std::size_t>(vn.first[u] + i);
        const std::size_t b = static_cast<std::size_t>(recvcounts[m]) * esz;
        if (b != 0) {
          std::memcpy(out + static_cast<std::size_t>(displs[m]) * esz,
                      blob.data() + off, b);
        }
        off += b;
      }
    }
  }
  return 0;
}

int HierAlltoallv(const void* sendbuf, std::span<const int> sendcounts,
                  std::span<const int> sdispls, rbc::Datatype dt,
                  void* recvbuf, std::span<const int> recvcounts,
                  std::span<const int> rdispls, const rbc::Comm& comm,
                  std::int64_t segment_bytes, const VnodeMap* vn_in,
                  HierLevelStats* stats) {
  rbc::detail::ValidateCollective(comm, /*root=*/0, "HierAlltoallv");
  const int p = comm.Size();
  if (static_cast<int>(sendcounts.size()) != p ||
      static_cast<int>(sdispls.size()) != p ||
      static_cast<int>(recvcounts.size()) != p ||
      static_cast<int>(rdispls.size()) != p) {
    throw mpisim::UsageError("topo::HierAlltoallv: count arrays must have "
                             "Size() entries");
  }
  const VnodeMap vn = vn_in != nullptr ? *vn_in : VnodeMapOf(comm);
  const int me = comm.Rank();
  const std::size_t esz = SizeOf(dt);
  std::int64_t my_total = 0;
  for (int c : sendcounts) my_total += c;
  auto rec = rbc::sanitize::MakeOp(CollKind::kHierAlltoallv, /*root=*/-1,
                                   kTagHierAlltoallv, my_total,
                                   static_cast<std::uint32_t>(esz),
                                   segment_bytes);
  if (rbc::sanitize::Enabled()) {
    rec.counts_to = LeadersOf(vn);
    rec.counts_from = rbc::sanitize::ToCounts(recvcounts);
  }
  rbc::sanitize::CollectiveScope scope(comm, std::move(rec));

  const auto* in = static_cast<const std::byte*>(sendbuf);
  std::vector<BytePiece> pieces;
  for (int d = 0; d < p; ++d) {
    if (sendcounts[static_cast<std::size_t>(d)] <= 0) continue;
    pieces.push_back(BytePiece{
        .dest = d,
        .data = in + static_cast<std::size_t>(
                         sdispls[static_cast<std::size_t>(d)]) * esz,
        .bytes = static_cast<std::int64_t>(
                     sendcounts[static_cast<std::size_t>(d)]) *
                 static_cast<std::int64_t>(esz)});
  }
  const HierWire wire{
      .send =
          [&](int dest, const std::byte* data, int bytes) {
            rbc::detail::SendInternal(data, bytes, Datatype::kByte, dest,
                                      kTagHierAlltoallv, comm);
          },
      .recv =
          [&](int src, std::byte* buf, int capacity) {
            rbc::Status st;
            rbc::detail::RecvInternal(buf, capacity, Datatype::kByte, src,
                                      kTagHierAlltoallv, comm, &st);
            return static_cast<int>(st.bytes);
          }};
  const HierReceived got =
      HierExchangeBytes(vn, me, pieces, segment_bytes, wire, stats);

  // The received stream is source-ordered; cut it at recvcounts.
  auto* out = static_cast<std::byte*>(recvbuf);
  std::size_t part = 0, at = 0;
  for (int s = 0; s < p; ++s) {
    std::size_t b =
        static_cast<std::size_t>(recvcounts[static_cast<std::size_t>(s)]) *
        esz;
    if (b == 0) continue;
    std::byte* dst =
        out + static_cast<std::size_t>(rdispls[static_cast<std::size_t>(s)]) *
                  esz;
    while (b != 0) {
      if (part == got.parts.size()) {
        throw mpisim::UsageError(
            "topo::HierAlltoallv: received fewer bytes than recvcounts "
            "expect (mismatched counts)");
      }
      const std::span<const std::byte> src = got.parts[part];
      const std::size_t n = std::min(b, src.size() - at);
      std::memcpy(dst, src.data() + at, n);
      dst += n;
      b -= n;
      at += n;
      if (at == src.size()) {
        ++part;
        at = 0;
      }
    }
  }
  if (part != got.parts.size()) {
    throw mpisim::UsageError(
        "topo::HierAlltoallv: received more bytes than recvcounts expect "
        "(mismatched counts)");
  }
  return 0;
}

}  // namespace topo
