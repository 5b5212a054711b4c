#include "mpisim/icomm_create.hpp"

#include <array>
#include <cstring>
#include <vector>

#include "mpisim/runtime.hpp"
#include "mpisim/schedule.hpp"

namespace mpisim {
namespace {

constexpr Channel kCh = Channel::kInternal;

std::array<std::int32_t, 5> PackTuple(const TupleCtx& t) {
  return {t.a, static_cast<std::int32_t>(t.b), t.f, t.l, t.c};
}

TupleCtx UnpackTuple(const std::array<std::int32_t, 5>& w) {
  return TupleCtx{.a = w[0], .b = static_cast<std::uint32_t>(w[1]), .f = w[2],
                  .l = w[3], .c = w[4]};
}

}  // namespace

Request IcommCreateGroup(const Comm& parent, const Group& group, int tag,
                         Comm* out) {
  if (parent.IsNull()) throw UsageError("IcommCreateGroup: null communicator");
  if (out == nullptr) throw UsageError("IcommCreateGroup: null out pointer");
  RankContext& rc = Ctx();
  const int my_index = group.RankOfWorld(rc.world_rank);
  if (my_index < 0) {
    throw UsageError(
        "IcommCreateGroup: calling rank is not a member of the group");
  }

  // Constant-time local path: contiguous range of a tuple-carrying parent.
  if (parent.Tuple()) {
    if (auto range = group.AsContiguousRangeOf(parent.GetGroup())) {
      const TupleCtx& pt = *parent.Tuple();
      const auto [f_prime, l_prime] = *range;
      const TupleCtx t{.a = pt.a,
                       .b = pt.b,
                       .f = pt.f + f_prime,
                       .l = pt.f + l_prime,
                       .c = pt.c + 1};
      const std::uint64_t base = rc.runtime->InternTuple(t);
      *out = Comm::Make(group, base, my_index, t);
      return Request(std::make_shared<detail::CompletedRequest>());
    }
  }

  // General path: coin at the first member and broadcast it to the
  // members, addressed by their parent ranks, on the user's tag -- the
  // O(alpha log l) path of the proposal.
  const int g = group.Size();
  std::vector<int> members(static_cast<std::size_t>(g));
  for (int i = 0; i < g; ++i) {
    members[static_cast<std::size_t>(i)] =
        parent.GetGroup().RankOfWorld(group.WorldRank(i));
    if (members[static_cast<std::size_t>(i)] < 0) {
      throw UsageError("IcommCreateGroup: group member not in parent");
    }
  }
  auto wire = std::make_shared<std::array<std::int32_t, 5>>();
  if (my_index == 0) {
    *wire = PackTuple(TupleCtx{.a = rc.world_rank,
                               .b = rc.icomm_counter++,
                               .f = 0,
                               .l = g - 1,
                               .c = 0});
  }
  detail::Schedule bcast = detail::MakeBcast(
      detail::ChannelEndpoint(parent, kCh, std::move(members), my_index),
      detail::BinomialTreeOf(my_index, g, 0), wire->data(), 5,
      Datatype::kInt32, tag);
  return Request(detail::MakeChain(std::move(bcast), [=] {
    RankContext& me = Ctx();
    const TupleCtx t = UnpackTuple(*wire);
    const std::uint64_t base = me.runtime->InternTuple(t);
    // General case: implementations store the explicit group (given by
    // the caller anyway); charge its construction.
    me.clock.Advance(static_cast<double>(group.StorageEntries()) *
                     me.runtime->options().cost.compute_unit);
    *out = Comm::Make(group.Materialized(), base, my_index, t);
    return std::make_shared<detail::CompletedRequest>();
  }));
}

}  // namespace mpisim
