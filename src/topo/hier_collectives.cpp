#include "topo/hier_collectives.hpp"

#include <algorithm>
#include <cstring>

#include "mpisim/datatype.hpp"
#include "rbc/p2p.hpp"
#include "rbc/sanitize.hpp"
#include "rbc/sm.hpp"

namespace topo {

using rbc::Datatype;
using rbc::sanitize::CollKind;

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
  const VnodeMap vn =
      vn_in != nullptr ? *vn_in : rbc::detail::VnodesOf(comm);
  const int me = comm.Rank();
  const std::size_t esz = SizeOf(dt);
  std::int64_t my_total = 0;
  for (int c : sendcounts) my_total += c;
  auto rec = rbc::sanitize::MakeOp(CollKind::kHierAlltoallv, /*root=*/-1,
                                   kTagHierAlltoallv, my_total,
                                   static_cast<std::uint32_t>(esz),
                                   segment_bytes);
  if (rbc::sanitize::Enabled()) {
    rec.counts_to.assign(vn.first.begin(), vn.first.end());
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
