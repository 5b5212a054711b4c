// Node-aware hierarchical transport (src/topo) on a two-level machine:
// does routing the exchange through per-node gateways pay off once
// inter-node messages cost 10-50x an intra-node one?
//
// Every section installs the same topology (8-rank nodes at p=64) and a
// two-level cost model derived from the run's base model (--cost-model
// can override any parameter; the defaults set inter_alpha = 25x the
// intra startup -- mid-range of the realistic 10-50x window).
//
//  * sample_sort -- the single-level sorter's one bucket all-to-all,
//    measured over the flat delivery paths (dense pairwise rounds and
//    direct sparse sends) vs the three-phase hierarchical engine, plus
//    kAuto to show auto-routing picks the hierarchical path on a
//    two-level model. The manifest gates that the hierarchical path
//    strictly reduces inter-node messages AND bytes and wins vtime at
//    p >= 64.
//  * multilevel -- MultilevelConfig.k = 0 (topology-derived: one group
//    per node, recursion goes node-local after one exchange) vs the flat
//    default k = 4 on flat delivery.
//  * service -- the elastic sort service under the same two-level model
//    with and without node-affine range allocation: node-aligned job
//    groups keep whole jobs on one node, so the service's total
//    inter-node traffic drops.
//
// Traffic is counted at the wire (mpisim per-rank Stats deltas summed
// over ranks), so headers, counts rounds and sparse-termination control
// messages are all charged to the path that sends them.
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "mpisim/runtime.hpp"
#include "sched/service.hpp"
#include "sort/jsort.hpp"
#include "sort/workload.hpp"
#include "topo/topology.hpp"

namespace {

using benchutil::Field;
using benchutil::Measurement;

/// The section's two-level model: the base (CLI-overridden) model if it
/// already is two-level, else the base flat parameters intra-node and a
/// 25x startup / 4x per-word penalty across nodes.
mpisim::CostModel TwoLevel(mpisim::CostModel base) {
  if (base.Hierarchical()) return base;
  base.intra_alpha = base.alpha;
  base.intra_beta = base.beta;
  base.inter_alpha = 25.0 * base.alpha;
  base.inter_beta = 4.0 * base.beta;
  return base;
}

/// The base model with the two-level overrides stripped: the flat
/// reference run.
mpisim::CostModel FlatModel(mpisim::CostModel base) {
  base.intra_alpha = base.intra_beta = -1.0;
  base.inter_alpha = base.inter_beta = -1.0;
  return base;
}

/// Wire traffic of one collective op, summed over all ranks (messages
/// and bytes actually injected, split at node boundaries).
struct Traffic {
  double messages = 0.0;
  double bytes = 0.0;
  double inter_messages = 0.0;
  double inter_bytes = 0.0;
};

/// Runs `op` once (collectively) and returns its global traffic. Only
/// send-side counters are summed, so the total is exact even though
/// ranks snapshot at their own return from `op`.
Traffic MeasureTraffic(mpisim::Comm& world,
                       const std::function<void()>& op) {
  mpisim::Barrier(world);
  const mpisim::Stats before = mpisim::Ctx().stats;
  op();
  const mpisim::Stats& after = mpisim::Ctx().stats;
  const double local[4] = {
      static_cast<double>(after.messages_sent - before.messages_sent),
      static_cast<double>(after.bytes_sent - before.bytes_sent),
      static_cast<double>(after.inter_messages_sent -
                          before.inter_messages_sent),
      static_cast<double>(after.inter_bytes_sent - before.inter_bytes_sent),
  };
  double global[4] = {0.0, 0.0, 0.0, 0.0};
  mpisim::Allreduce(local, global, 4, mpisim::Datatype::kFloat64,
                    mpisim::ReduceOp::kSum, world);
  return Traffic{global[0], global[1], global[2], global[3]};
}

std::vector<Field> TrafficFields(const Traffic& t,
                                 const mpisim::CostModel& cost, int nodes) {
  const double intra_a = cost.AlphaFor(false);
  return {
      Field{"messages", static_cast<long long>(t.messages)},
      Field{"inter_messages", static_cast<long long>(t.inter_messages)},
      Field{"inter_bytes", static_cast<long long>(t.inter_bytes)},
      Field{"intra_messages",
            static_cast<long long>(t.messages - t.inter_messages)},
      Field{"intra_bytes", static_cast<long long>(t.bytes - t.inter_bytes)},
      Field{"alpha_ratio",
            intra_a > 0.0 ? cost.AlphaFor(true) / intra_a : 1.0},
      Field{"nodes", static_cast<long long>(nodes)},
  };
}

struct SortPoint {
  Measurement m;
  Traffic traffic;
};

/// Measures one sorter configuration on a fresh runtime: vtime median
/// over `reps`, then one traffic-instrumented run.
SortPoint MeasureSort(int ranks, const topo::Topology& topology,
                      const mpisim::CostModel& cost, int reps,
                      const std::function<void(mpisim::Comm&)>& sort_once) {
  mpisim::Runtime::Options opts;
  opts.num_ranks = ranks;
  opts.cost = cost;
  opts.topology = topology;
  mpisim::Runtime rt(opts);
  SortPoint point;
  rt.Run([&](mpisim::Comm& world) {
    const Measurement m =
        benchutil::MeasureOnRanks(world, reps, [&] { sort_once(world); });
    const Traffic t = MeasureTraffic(world, [&] { sort_once(world); });
    if (world.Rank() == 0) {
      point.m = m;
      point.traffic = t;
    }
  });
  return point;
}

void RunSampleSort(benchutil::BenchContext& ctx) {
  const int ranks = ctx.smoke() ? 16 : 64;
  const int node_size = ctx.smoke() ? 4 : 8;
  const int quota = ctx.smoke() ? 256 : 1024;
  const int reps = ctx.reps(3);
  const topo::Topology topology = topo::Topology::Uniform(ranks, node_size);
  const mpisim::CostModel two_level = TwoLevel(ctx.cost());

  const struct {
    const char* name;
    mpisim::CostModel cost;
    jsort::exchange::Mode mode;
  } kPaths[] = {
      // The flat reference: same machine, no cost distinction (kAuto
      // stays on the flat delivery paths).
      {"flat", FlatModel(ctx.cost()), jsort::exchange::Mode::kAuto},
      {"dense", two_level, jsort::exchange::Mode::kAlltoallv},
      {"sparse", two_level, jsort::exchange::Mode::kSparse},
      {"hier", two_level, jsort::exchange::Mode::kHierarchical},
      {"auto", two_level, jsort::exchange::Mode::kAuto},
  };
  for (const auto& path : kPaths) {
    const SortPoint pt = MeasureSort(
        ranks, topology, path.cost, reps, [&](mpisim::Comm& world) {
          auto input = jsort::GenerateInput(jsort::InputKind::kUniform,
                                            world.Rank(), ranks, quota, 17);
          auto tr = jsort::MakeMpiTransport(world);
          jsort::SampleSortConfig cfg;
          cfg.exchange_mode = path.mode;
          jsort::SampleSort(tr, std::move(input), cfg);
        });
    ctx.Row("topo_sample_sort", path.name, ranks, quota, pt.m,
            TrafficFields(pt.traffic, path.cost, topology.NodeCount()));
  }
}

void RunMultilevel(benchutil::BenchContext& ctx) {
  const int ranks = ctx.smoke() ? 16 : 64;
  const int node_size = ctx.smoke() ? 4 : 8;
  const int quota = ctx.smoke() ? 256 : 1024;
  const int reps = ctx.reps(3);
  const topo::Topology topology = topo::Topology::Uniform(ranks, node_size);
  const mpisim::CostModel two_level = TwoLevel(ctx.cost());

  const struct {
    const char* name;
    int k;
    jsort::exchange::Mode mode;
  } kVariants[] = {
      // Flat defaults on the two-level machine: k = 4 groups ignore node
      // boundaries, pieces travel on the flat sparse path.
      {"flat", 4, jsort::exchange::Mode::kSparse},
      // Topology-derived branching alone: k = 0 resolves to one group
      // per node (every level past the first is node-local), pieces
      // still travel on the flat sparse path.
      {"topo_sparse", 0, jsort::exchange::Mode::kSparse},
      // Topology-derived: k = 0 and the per-level exchange auto-routes
      // through the hierarchical engine.
      {"topo", 0, jsort::exchange::Mode::kAuto},
  };
  for (const auto& variant : kVariants) {
    const SortPoint pt = MeasureSort(
        ranks, topology, two_level, reps, [&](mpisim::Comm& world) {
          auto input = jsort::GenerateInput(jsort::InputKind::kUniform,
                                            world.Rank(), ranks, quota, 17);
          auto tr = jsort::MakeMpiTransport(world);
          jsort::MultilevelConfig cfg;
          cfg.k = variant.k;
          cfg.exchange_mode = variant.mode;
          jsort::MultilevelSampleSort(tr, std::move(input), cfg);
        });
    ctx.Row("topo_multilevel", variant.name, ranks, quota, pt.m,
            TrafficFields(pt.traffic, two_level, topology.NodeCount()));
  }
}

void RunServiceMix(benchutil::BenchContext& ctx) {
  const int ranks = ctx.smoke() ? 16 : 64;
  const int node_size = ctx.smoke() ? 4 : 8;
  const int jobs = ctx.smoke() ? 24 : 160;
  const topo::Topology topology = topo::Topology::Uniform(ranks, node_size);
  const mpisim::CostModel two_level = TwoLevel(ctx.cost());

  jsort::sched::JobStreamParams params;
  params.jobs = jobs;
  params.mean_interarrival = ctx.smoke() ? 160.0 : 40.0;
  params.min_width = 1;
  params.max_width = node_size;  // every job *could* fit on one node
  params.min_n = 128;
  params.max_n = 2048;
  const auto stream = jsort::sched::MakeJobStream(
      ranks, params, static_cast<std::uint64_t>(ctx.seed()));

  const struct {
    const char* name;
    bool affine;
  } kAllocs[] = {
      {"spread", false},  // plain first fit, blind to node boundaries
      {"affine", true},   // node-affine placement (fewest cross-node cuts)
  };
  for (const auto& alloc : kAllocs) {
    jsort::sched::ServiceConfig cfg;
    if (alloc.affine) cfg.scheduler.topology = topology;
    jsort::sched::SortService service(ranks, stream, cfg);
    mpisim::Runtime::Options opts;
    opts.num_ranks = ranks;
    opts.cost = two_level;
    opts.topology = topology;
    mpisim::Runtime rt(opts);
    jsort::sched::ServiceStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    rt.Run([&](mpisim::Comm& world) {
      jsort::sched::ServiceStats mine = service.Run(world);
      if (world.Rank() == 0) stats = std::move(mine);
    });
    const auto t1 = std::chrono::steady_clock::now();
    const jsort::sched::ServiceMetrics m = jsort::sched::Summarize(stats);
    const mpisim::Stats wire = rt.TotalStats();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ctx.Row(
        "topo_service", alloc.name, ranks, jobs,
        Measurement{wall_ms, m.makespan},
        {
            Field{"jobs_per_sec", m.jobs_per_sec},
            Field{"p99_latency", m.p99_latency},
            Field{"jobs_done", static_cast<long long>(m.jobs - m.failed)},
            Field{"inter_messages",
                  static_cast<long long>(wire.inter_messages_sent)},
            Field{"inter_bytes",
                  static_cast<long long>(wire.inter_bytes_sent)},
            Field{"messages", static_cast<long long>(wire.messages_sent)},
            Field{"nodes", static_cast<long long>(topology.NodeCount())},
            Field{"seed", ctx.seed()},
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchSpec spec;
  spec.binary = "bench_topo";
  spec.figure = "node-aware hierarchical transport (two-level cost model)";
  spec.description =
      "topology-shaped exchange on a two-level machine: flat vs "
      "hierarchical delivery for the sorters' all-to-all, topology-derived "
      "multilevel branching, and node-affine service placement";
  spec.default_p = 64;
  spec.default_reps = 3;
  spec.sections = {
      {"sample_sort",
       "bucket exchange: dense/sparse flat paths vs the hierarchical engine",
       RunSampleSort},
      {"multilevel", "k = 4 flat vs k = 0 (one group per node)",
       RunMultilevel},
      {"service",
       "sort service with vs without node-affine range allocation",
       RunServiceMix},
  };
  return benchutil::BenchMain(argc, argv, spec);
}
