#include "sort/multilevel_sort.hpp"

#include <algorithm>
#include <random>

#include "sort/partition.hpp"
#include "sort/sampling.hpp"

namespace jsort {
namespace {

constexpr int kTagSplitter = 2048;
constexpr int kTagPieceBase = 2080;  // + level

/// Near-equal partition of p ranks into k groups: group g covers
/// [Begin(g), Begin(g+1)) with the first p%k groups one rank larger.
struct GroupLayout {
  int p = 1;
  int k = 1;

  int Begin(int g) const {
    const int base = p / k;
    const int extra = p % k;
    return g * base + std::min(g, extra);
  }
  int SizeOfGroup(int g) const { return Begin(g + 1) - Begin(g); }
  int GroupOfRank(int r) const {
    // O(1) arithmetic inverse of Begin: the first p%k groups are one rank
    // wider and jointly cover the first (base+1)*(p%k) ranks.
    const int base = p / k;
    const int extra = p % k;
    const int wide = (base + 1) * extra;
    return r < wide ? r / (base + 1) : extra + (r - wide) / base;
  }
};

}  // namespace

std::vector<double> MultilevelSampleSort(
    const std::shared_ptr<Transport>& world, std::vector<double> local,
    const MultilevelConfig& cfg, MultilevelStats* stats) {
  if (world == nullptr) {
    throw mpisim::UsageError("MultilevelSampleSort: null transport");
  }
  if (cfg.k != 0 && cfg.k < 2) {
    throw mpisim::UsageError("MultilevelSampleSort: k must be >= 2 (or 0)");
  }
  int k_cfg = cfg.k;
  if (k_cfg == 0) {
    // Topology-derived default: one group per node aligns the first
    // level's groups with node boundaries, so later levels stay
    // node-local. Off a two-level cost model (or on a single node) the
    // node count carries no information -- fall back to the classic 4.
    const int nodes = exchange::VnodesOfGroup(*world).Count();
    k_cfg = mpisim::Ctx().runtime->options().cost.Hierarchical() && nodes > 1
                ? std::max(2, nodes)
                : 4;
  }
  if (stats != nullptr) *stats = MultilevelStats{};
  std::mt19937_64 rng(cfg.seed ^
                      (0x9E3779B97F4A7C15ull *
                       (static_cast<std::uint64_t>(mpisim::Ctx().world_rank) +
                        1)));

  std::shared_ptr<Transport> tr = world;
  int level = 0;
  while (tr->Size() > 1) {
    const int p = tr->Size();
    const int rank = tr->Rank();
    const int k = std::min(k_cfg, p);
    const GroupLayout groups{p, k};

    // 1) Splitter selection: sample, gather, pick k-1 weighted, bcast
    //    (twice where a larger sample pays).
    const std::vector<double> splitters =
        SelectSplitters(*tr, local, kFirstRoundSamples, k,
                        kTagSplitter + level, rng);

    // 2) Partition into k pieces with the branchless splitter-tree kernel.
    const KWayBuckets pieces = PartitionKWay(local, splitters);
    local.clear();
    local.shrink_to_fit();

    // 3) AMS-style group-wise exchange: sender r deterministically assigns
    //    piece g to group-g member Begin(g) + r % |group g|, spreading
    //    senders evenly, and ships the pieces in place as buckets through
    //    the exchange layer. Only non-empty pieces cost a message startup;
    //    receivers need no precomputed expectations (the layer's sparse
    //    collective detects termination), so empty pieces are simply never
    //    sent.
    std::vector<int> members;
    for (int piece = 0; piece < k; ++piece) {
      members.push_back(groups.Begin(piece) +
                        rank % groups.SizeOfGroup(piece));
    }
    exchange::ExchangeStats es;
    local = exchange::ExchangeBuckets(*tr, pieces.elements, pieces.offsets,
                                      members, kTagPieceBase + level, &es,
                                      exchange::kDefaultSegmentBytes,
                                      cfg.exchange_mode);
    if (stats != nullptr) {
      stats->messages_sent += es.messages_sent;
      stats->segments_sent += es.segments;
      stats->level_stats.push_back(es);
    }

    // 4) Recurse within my group (O(1) local split with RBC).
    const int my_group = groups.GroupOfRank(rank);
    tr = tr->Split(groups.Begin(my_group), groups.Begin(my_group + 1) - 1);
    ++level;
  }
  std::sort(local.begin(), local.end());
  if (stats != nullptr) {
    stats->levels = level;
    stats->final_elements = static_cast<std::int64_t>(local.size());
  }
  return local;
}

}  // namespace jsort
