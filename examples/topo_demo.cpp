// Node-aware hierarchical transport, end to end: the same sample sort on
// the same 16-rank machine (4 nodes of 4), once over each flat delivery
// path and once over the topology-shaped hierarchical path, printing the
// per-level (intra-node vs inter-node) wire traffic each incurs and the
// virtual time each pays under a two-level cost model whose network
// startup is 25x the shared-memory one.
//
// The hierarchical path gathers each node's traffic for every remote node
// at one gateway rank (a different one per remote node), crosses the
// network once gateway-to-gateway, and scatters locally -- so the number
// of messages paying the expensive inter-node alpha collapses from O(p^2)
// (every cross pair) to O(nodes^2), at most one sent and one received per
// rank when nodes <= ranks per node + 1, while delivered bytes stay
// identical.
//
// Run:  ./examples/topo_demo
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "mpisim/mpisim.hpp"
#include "sort/exchange.hpp"
#include "sort/sample_sort.hpp"
#include "topo/topology.hpp"

namespace {

constexpr int kRanks = 16;
constexpr int kNodeSize = 4;
constexpr int kPerRank = 2048;

struct PathResult {
  double vtime = 0.0;
  mpisim::Stats wire;  // summed over all ranks
};

/// One sample sort over the given delivery mode; traffic comes from the
/// substrate's per-rank wire counters, summed over all ranks, so the
/// intra/inter split reflects what actually crossed node boundaries.
PathResult RunPath(jsort::exchange::Mode mode) {
  mpisim::RuntimeConfig opts;
  opts.num_ranks = kRanks;
  opts.topology = topo::Topology::Uniform(kRanks, kNodeSize);
  // Two-level model: network startup 25x, per-byte 4x shared memory.
  opts.cost.intra_alpha = opts.cost.alpha;
  opts.cost.intra_beta = opts.cost.beta;
  opts.cost.inter_alpha = 25.0 * opts.cost.alpha;
  opts.cost.inter_beta = 4.0 * opts.cost.beta;
  mpisim::Runtime rt(opts);

  rt.Run([mode](mpisim::Comm& world) {
    auto tr = jsort::MakeMpiTransport(world);
    std::mt19937_64 rng(1234 + static_cast<std::uint64_t>(world.Rank()));
    std::vector<double> local(kPerRank);
    for (double& v : local) v = static_cast<double>(rng() % 1000000);
    jsort::SampleSortConfig cfg;
    cfg.exchange_mode = mode;
    jsort::SampleSort(tr, std::move(local), cfg);
  });

  return PathResult{rt.MaxVirtualTime(), rt.TotalStats()};
}

void Print(const char* name, const PathResult& r) {
  const auto intra_msgs = r.wire.messages_sent - r.wire.inter_messages_sent;
  const auto intra_bytes = r.wire.bytes_sent - r.wire.inter_bytes_sent;
  std::printf("%-12s vtime %10.1f | intra-node %5llu msgs %8llu B | "
              "inter-node %4llu msgs %8llu B\n",
              name, r.vtime, static_cast<unsigned long long>(intra_msgs),
              static_cast<unsigned long long>(intra_bytes),
              static_cast<unsigned long long>(r.wire.inter_messages_sent),
              static_cast<unsigned long long>(r.wire.inter_bytes_sent));
}

}  // namespace

int main() {
  std::printf("sample sort, %d ranks on %d nodes of %d, n/p = %d, "
              "inter/intra alpha ratio 25x\n\n",
              kRanks, kRanks / kNodeSize, kNodeSize, kPerRank);
  const PathResult dense = RunPath(jsort::exchange::Mode::kAlltoallv);
  const PathResult sparse = RunPath(jsort::exchange::Mode::kSparse);
  const PathResult hier = RunPath(jsort::exchange::Mode::kHierarchical);
  Print("dense", dense);
  Print("sparse", sparse);
  Print("hierarchical", hier);
  const double fewer =
      static_cast<double>(dense.wire.inter_messages_sent) /
      static_cast<double>(
          hier.wire.inter_messages_sent ? hier.wire.inter_messages_sent : 1);
  std::printf("\nhierarchical vs dense: %.1fx fewer inter-node messages, "
              "%.2fx vtime\n",
              fewer, hier.vtime / dense.vtime);
  return 0;
}
