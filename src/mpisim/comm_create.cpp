#include "mpisim/comm_create.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/p2p.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/schedule.hpp"

namespace mpisim {
namespace {

using Mask = std::bitset<kMaxMaskContexts>;
constexpr int kMaskBytes = kMaxMaskContexts / 8;
constexpr Channel kCh = Channel::kInternal;

void Serialize(const Mask& m, std::byte* out) {
  std::memset(out, 0, kMaskBytes);
  for (int i = 0; i < kMaxMaskContexts; ++i) {
    if (m.test(i)) {
      out[i / 8] |= static_cast<std::byte>(1u << (i % 8));
    }
  }
}

void OrInto(const std::byte* in, Mask& m) {
  for (int i = 0; i < kMaxMaskContexts; ++i) {
    if ((in[i / 8] & static_cast<std::byte>(1u << (i % 8))) !=
        std::byte{0}) {
      m.set(i);
    }
  }
}

std::uint64_t LowestClear(const Mask& m) {
  for (int i = 1; i < kMaxMaskContexts; ++i) {  // 0 is the world comm
    if (!m.test(i)) return static_cast<std::uint64_t>(i);
  }
  throw Error("mpisim: context id space exhausted");
}

/// Agrees on the union of the members' used-context masks: the core's
/// BOR Allreduce over the binomial tree of member indices, addressed
/// through `members` (parent comm ranks), on the parent's internal channel
/// with `tag`. This is the MPICH/Open MPI style agreement.
Mask AgreeMaskTree(const Comm& parent, std::span<const int> members,
                   int my_index, int tag) {
  std::array<std::byte, kMaskBytes> mine{};
  std::array<std::byte, kMaskBytes> unioned{};
  Serialize(Ctx().ctx_mask, mine.data());
  const int g = static_cast<int>(members.size());
  detail::Run(detail::MakeAllreduce(
                  detail::ChannelEndpoint(parent, kCh,
                                          {members.begin(), members.end()},
                                          my_index),
                  detail::BinomialTreeOf(my_index, g, 0), mine.data(),
                  unioned.data(), kMaskBytes, Datatype::kByte, ReduceOp::kBor,
                  tag, tag),
              "CommCreateGroup");
  Mask m;
  OrInto(unioned.data(), m);
  return m;
}

/// Serial ring agreement: the mask crawls up the member chain and the
/// union crawls back down -- 2(g-1) strictly serialized message latencies.
/// Models the pathologically slow vendor create_group of Figure 5.
Mask AgreeMaskRing(const Comm& parent, std::span<const int> members,
                   int my_index, int tag) {
  const int g = static_cast<int>(members.size());
  Mask acc = Ctx().ctx_mask;
  std::array<std::byte, kMaskBytes> wire{};

  if (my_index > 0) {
    detail::RecvOnChannel(wire.data(), kMaskBytes, Datatype::kByte,
                          members[my_index - 1], tag, parent, kCh);
    OrInto(wire.data(), acc);
  }
  if (my_index + 1 < g) {
    Serialize(acc, wire.data());
    detail::SendOnChannel(wire.data(), kMaskBytes, Datatype::kByte,
                          members[my_index + 1], tag, parent, kCh);
    // Union comes back down the chain.
    detail::RecvOnChannel(wire.data(), kMaskBytes, Datatype::kByte,
                          members[my_index + 1], tag, parent, kCh);
    acc.reset();
    OrInto(wire.data(), acc);
  }
  if (my_index > 0) {
    Serialize(acc, wire.data());
    detail::SendOnChannel(wire.data(), kMaskBytes, Datatype::kByte,
                          members[my_index - 1], tag, parent, kCh);
  }
  return acc;
}

/// Marks `base` used at the calling rank and builds the release hook that
/// frees it again when the last communicator handle drops.
std::function<void()> MarkUsed(std::uint64_t base) {
  RankContext& rc = Ctx();
  rc.ctx_mask.set(static_cast<std::size_t>(base));
  RankContext* rcp = &rc;
  return [rcp, base] { rcp->ctx_mask.reset(static_cast<std::size_t>(base)); };
}

/// Charges the deliberate linear cost of materializing an explicit rank
/// array, as Intel/MPICH/Open MPI do during construction (Section III).
Group MaterializeCharged(const Group& g) {
  RankContext& rc = Ctx();
  rc.clock.Advance(static_cast<double>(g.Size()) *
                   rc.runtime->options().cost.group_entry);
  return g.Materialized();
}

/// Context agreement over a whole communicator via the blocking collective
/// machinery (used by split).
std::uint64_t AgreeOverWholeComm(const Comm& parent) {
  std::array<std::byte, kMaskBytes> mine{};
  std::array<std::byte, kMaskBytes> unioned{};
  Serialize(Ctx().ctx_mask, mine.data());
  Allreduce(mine.data(), unioned.data(), kMaskBytes, Datatype::kByte,
            ReduceOp::kBor, parent);
  Mask m;
  OrInto(unioned.data(), m);
  return LowestClear(m);
}

}  // namespace

Group GroupIncl(const Comm& comm, std::span<const int> ranks) {
  if (comm.IsNull()) throw UsageError("GroupIncl: null communicator");
  std::vector<int> world;
  world.reserve(ranks.size());
  for (int r : ranks) world.push_back(comm.WorldRank(r));
  return Group::FromExplicit(std::move(world));
}

Group GroupRangeIncl(const Comm& comm, std::span<const RankRange> ranges) {
  if (comm.IsNull()) throw UsageError("GroupRangeIncl: null communicator");
  if (auto affine = comm.GetGroup().AffineMap()) {
    const auto [base, stride] = *affine;
    std::vector<RankRange> world;
    world.reserve(ranges.size());
    for (const RankRange& r : ranges) {
      if (r.first < 0 || r.last >= comm.Size()) {
        throw UsageError("GroupRangeIncl: range out of bounds");
      }
      const int n = r.size();
      world.push_back(RankRange{base + r.first * stride,
                                base + (r.first + (n - 1) * r.stride) * stride,
                                r.stride * stride});
    }
    return Group::FromRanges(std::move(world));
  }
  // Non-affine parent mapping: fall back to explicit enumeration.
  std::vector<int> world;
  for (const RankRange& r : ranges) {
    for (int i = 0; i < r.size(); ++i) world.push_back(comm.WorldRank(r.at(i)));
  }
  return Group::FromExplicit(std::move(world));
}

Comm CommSplit(const Comm& parent, int color, int key) {
  if (parent.IsNull()) throw UsageError("CommSplit: null communicator");
  const int p = parent.Size();
  const int rank = parent.Rank();
  RankContext& rc = Ctx();

  // Allgather of (color, key) over the whole parent: the Omega(beta*p)
  // step that makes MPI_Comm_split non-scalable for small subgroups.
  std::array<std::int32_t, 2> mine{static_cast<std::int32_t>(color),
                                   static_cast<std::int32_t>(key)};
  std::vector<std::int32_t> all(static_cast<std::size_t>(2) * p);
  Allgather(mine.data(), 2, Datatype::kInt32, all.data(), parent);

  // Context agreement over the whole parent. Disjoint color groups can
  // safely share the resulting id (as MPICH does).
  const std::uint64_t base = AgreeOverWholeComm(parent);

  if (color == kUndefinedColor) return Comm{};

  // Local grouping: members of my color ordered by (key, parent rank).
  std::vector<std::pair<std::int32_t, int>> members;  // (key, parent rank)
  for (int r = 0; r < p; ++r) {
    if (all[2 * static_cast<std::size_t>(r)] == color) {
      members.emplace_back(all[2 * static_cast<std::size_t>(r) + 1], r);
    }
  }
  std::stable_sort(members.begin(), members.end());
  rc.clock.Advance(static_cast<double>(p) *
                   rc.runtime->options().cost.group_entry);

  std::vector<int> world;
  world.reserve(members.size());
  int my_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    world.push_back(parent.WorldRank(members[i].second));
    if (members[i].second == rank) my_rank = static_cast<int>(i);
  }
  return Comm::Make(Group::FromExplicit(std::move(world)), base, my_rank,
                    std::nullopt, MarkUsed(base));
}

Comm CommCreateGroup(const Comm& parent, const Group& group, int tag) {
  if (parent.IsNull()) throw UsageError("CommCreateGroup: null communicator");
  RankContext& rc = Ctx();
  const int my_index = group.RankOfWorld(rc.world_rank);
  if (my_index < 0) {
    throw UsageError(
        "CommCreateGroup: calling rank is not a member of the group");
  }
  const int g = group.Size();

  // Translate members to parent ranks -- O(g) local work, charged.
  std::vector<int> members(g);
  for (int i = 0; i < g; ++i) {
    members[i] = parent.GetGroup().RankOfWorld(group.WorldRank(i));
    if (members[i] < 0) {
      throw UsageError("CommCreateGroup: group member not in parent");
    }
  }
  rc.clock.Advance(static_cast<double>(g) *
                   rc.runtime->options().cost.group_entry);

  const Mask unioned =
      rc.runtime->options().profile == VendorProfile::kSlowCreateGroup
          ? AgreeMaskRing(parent, members, my_index, tag)
          : AgreeMaskTree(parent, members, my_index, tag);
  const std::uint64_t base = LowestClear(unioned);

  // Explicit rank-array materialization during construction (Section III:
  // even sparse-storage implementations build this mapping when creating).
  Group stored = MaterializeCharged(group);
  return Comm::Make(std::move(stored), base, my_index, std::nullopt,
                    MarkUsed(base));
}

}  // namespace mpisim
