// The query subsystem (src/query) benchmark: answers without sorting.
//
// Three sections:
//  * oracle -- every query kind on every split backend against the
//    sequential oracle over the concatenated input; `exact` is 1 only on
//    value-exact agreement (selection/top-k) resp. byte-identical
//    summaries (quantile). A CI-gated correctness matrix, not a timing.
//  * mix    -- the service under a 90/10 query/sort mix: small
//    latency-sensitive queries dominate, so per-admission communicator
//    creation is a first-order cost and the backend axis separates in
//    queries/sec and query tail latency (rbc pays zero split vtime).
//  * topk   -- bytes on the wire for "the k smallest, please": the
//    selection route (threshold, then a gather of the elements below it)
//    and the local-heap route (p*k candidates) against the full-sort
//    baseline that moves the entire input. The reason queries exist as a
//    first-class job kind instead of "sort, then read a prefix".
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "mpisim/runtime.hpp"
#include "query/quantile.hpp"
#include "query/select.hpp"
#include "query/topk.hpp"
#include "sched/service.hpp"
#include "sort/sample_sort.hpp"
#include "sort/workload.hpp"

namespace {

using benchutil::Field;
using benchutil::Measurement;
using jsort::Backend;
using jsort::InputKind;
using jsort::sched::JobSpec;
using jsort::sched::JobStreamParams;
using jsort::sched::MakeJobStream;
using jsort::sched::ServiceConfig;
using jsort::sched::ServiceMetrics;
using jsort::sched::ServiceStats;
using jsort::sched::SortService;
using jsort::sched::Summarize;
using jsort::sched::SummarizeQueries;

std::vector<double> Concat(InputKind kind, int p, std::int64_t per_rank,
                           std::uint64_t seed) {
  std::vector<double> all;
  for (int r = 0; r < p; ++r) {
    const auto slice = jsort::GenerateInput(kind, r, p, per_rank, seed);
    all.insert(all.end(), slice.begin(), slice.end());
  }
  return all;
}

// --- oracle ------------------------------------------------------------------

void RunOracle(benchutil::BenchContext& ctx) {
  const int ranks = 8;
  const std::int64_t per_rank = ctx.smoke() ? 50 : 250;
  const auto seed = static_cast<std::uint64_t>(ctx.seed());
  std::vector<double> sorted = Concat(InputKind::kZipf, ranks, per_rank, seed);
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<std::int64_t>(sorted.size());
  const std::int64_t k_sel = n / 3;
  const std::int64_t k_top = std::min<std::int64_t>(n, 40);
  const jsort::query::QuantileSummary local_summary =
      jsort::query::BuildQuantileSummaryLocal(sorted);

  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    int exact_select = 0, exact_topk = 0, exact_quantile = 0;
    mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = ranks});
    const auto t0 = std::chrono::steady_clock::now();
    rt.Run([&](mpisim::Comm& world) {
      auto tr = jsort::MakeTransport(backend, world);
      const auto local = jsort::GenerateInput(InputKind::kZipf, world.Rank(),
                                              ranks, per_rank, seed);

      const jsort::query::SelectResult sel =
          jsort::query::DistributedSelect(*tr, local, k_sel);
      const auto less = static_cast<std::int64_t>(
          std::lower_bound(sorted.begin(), sorted.end(), sel.value) -
          sorted.begin());
      const auto less_equal = static_cast<std::int64_t>(
          std::upper_bound(sorted.begin(), sorted.end(), sel.value) -
          sorted.begin());
      const bool sel_ok =
          sel.value == sorted[static_cast<std::size_t>(k_sel)] &&
          sel.less == less && sel.less_equal == less_equal;

      const std::vector<double> topk =
          jsort::query::DistributedTopK(*tr, local, k_top);
      bool top_ok = true;
      if (world.Rank() == 0) {
        top_ok = std::equal(topk.begin(), topk.end(), sorted.begin(),
                            sorted.begin() + k_top) &&
                 topk.size() == static_cast<std::size_t>(k_top);
      }

      const jsort::query::QuantileSummary s =
          jsort::query::BuildQuantileSummary(*tr, local);
      const bool quant_ok = s.boundaries() == local_summary.boundaries() &&
                            s.counts() == local_summary.counts() &&
                            s.total() == local_summary.total();

      if (world.Rank() == 0) {
        exact_select = sel_ok ? 1 : 0;
        exact_topk = top_ok ? 1 : 0;
        exact_quantile = quant_ok ? 1 : 0;
      }
    });
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / 3.0;
    const double vtime = rt.MaxVirtualTime();
    const struct {
      const char* kind;
      int exact;
    } kRows[] = {{"select", exact_select},
                 {"topk", exact_topk},
                 {"quantile", exact_quantile}};
    for (const auto& row : kRows) {
      ctx.Row("query_oracle", jsort::BackendName(backend), ranks, n,
              Measurement{wall, vtime},
              {Field{"kind", row.kind}, Field{"exact", row.exact},
               Field{"seed", ctx.seed()}});
    }
  }
}

// --- mix ---------------------------------------------------------------------

/// Query-dominated service load: 90% of jobs ask for an answer (select /
/// top-k / quantile), 10% are full sorts that keep the machine busy.
JobStreamParams QueryMix(int jobs, bool smoke) {
  JobStreamParams p;
  p.jobs = jobs;
  p.mean_interarrival = smoke ? 160.0 : 40.0;
  p.min_width = 1;
  p.max_width = 8;
  p.min_n = 128;
  p.max_n = 2048;
  p.query_fraction = 0.9;
  return p;
}

void RunMix(benchutil::BenchContext& ctx) {
  const int ranks = ctx.smoke() ? 16 : 64;
  const int jobs = ctx.smoke() ? 24 : 240;
  const auto stream = MakeJobStream(ranks, QueryMix(jobs, ctx.smoke()),
                                    static_cast<std::uint64_t>(ctx.seed()));
  for (const Backend backend :
       {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    ServiceConfig cfg;
    cfg.backend = backend;
    cfg.verify = true;  // off-clock: answers are checked, timings untouched
    SortService service(ranks, stream, std::move(cfg));
    ServiceStats stats;
    mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = ranks});
    const auto t0 = std::chrono::steady_clock::now();
    rt.Run([&](mpisim::Comm& world) {
      ServiceStats mine = service.Run(world);
      if (world.Rank() == 0) stats = std::move(mine);
    });
    const auto t1 = std::chrono::steady_clock::now();
    const ServiceMetrics all = Summarize(stats);
    const ServiceMetrics queries = SummarizeQueries(stats);
    ctx.Row(
        "query_mix", jsort::BackendName(backend), ranks, jobs,
        Measurement{
            std::chrono::duration<double, std::milli>(t1 - t0).count(),
            stats.makespan},
        {Field{"queries_per_sec", queries.jobs_per_sec},
         Field{"p50_query_latency", queries.p50_latency},
         Field{"p99_query_latency", queries.p99_latency},
         Field{"queries", static_cast<long long>(queries.jobs)},
         Field{"split_share", all.split_share},
         Field{"jobs_done", static_cast<long long>(all.jobs - all.failed)},
         Field{"seed", ctx.seed()}});
  }
}

// --- topk --------------------------------------------------------------------

void RunTopKBytes(benchutil::BenchContext& ctx) {
  const int ranks = 32;
  const std::int64_t per_rank = ctx.smoke() ? 256 : 4096;
  const std::int64_t n_total = per_rank * ranks;
  const auto seed = static_cast<std::uint64_t>(ctx.seed());
  const std::vector<std::int64_t> ks =
      ctx.smoke() ? std::vector<std::int64_t>{8, 32}
                  : std::vector<std::int64_t>{16, 256, 2048};

  const struct {
    const char* name;
    jsort::query::TopKRoute route;  // ignored for fullsort
    bool fullsort;
  } kApproaches[] = {
      {"select", jsort::query::TopKRoute::kSelect, false},
      {"heap", jsort::query::TopKRoute::kLocalHeap, false},
      {"fullsort", jsort::query::TopKRoute::kSelect, true},
  };

  for (const std::int64_t k : ks) {
    for (const auto& approach : kApproaches) {
      mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = ranks});
      const auto t0 = std::chrono::steady_clock::now();
      rt.Run([&](mpisim::Comm& world) {
        auto tr = jsort::MakeTransport(Backend::kRbc, world);
        std::vector<double> local = jsort::GenerateInput(
            InputKind::kUniform, world.Rank(), ranks, per_rank, seed);
        if (approach.fullsort) {
          // The baseline: sort everything, then the k smallest would be a
          // prefix read. All n elements cross the wire at least once.
          jsort::SampleSortConfig scfg;
          scfg.seed = seed;
          (void)jsort::SampleSort(tr, std::move(local), scfg);
        } else {
          jsort::query::TopKConfig qcfg;
          qcfg.route = approach.route;
          qcfg.seed = seed;
          (void)jsort::query::DistributedTopK(*tr, local, k, qcfg);
        }
      });
      const auto t1 = std::chrono::steady_clock::now();
      const mpisim::Stats totals = rt.TotalStats();
      ctx.Row("query_topk_bytes", approach.name, ranks, k,
              Measurement{
                  std::chrono::duration<double, std::milli>(t1 - t0).count(),
                  rt.MaxVirtualTime()},
              {Field{"bytes_on_wire",
                     static_cast<long long>(totals.bytes_sent)},
               Field{"messages",
                     static_cast<long long>(totals.messages_sent)},
               Field{"n_total", static_cast<long long>(n_total)},
               Field{"seed", ctx.seed()}});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchSpec spec;
  spec.binary = "bench_query";
  spec.figure = "query subsystem (selection / top-k / quantile)";
  spec.description =
      "Distributed queries over the split backends: oracle-exactness "
      "matrix, service throughput under a 90/10 query/sort mix, and "
      "bytes-on-wire of top-k routes vs a full sort";
  spec.default_p = 64;
  spec.default_reps = 1;  // every section is vtime-deterministic per seed
  spec.sections = {
      {"oracle",
       "value-exact agreement of select/topk/quantile with the sequential "
       "oracle on every backend",
       RunOracle},
      {"mix",
       "service under a 90/10 query/sort mix across the rbc/mpi/icomm "
       "backends",
       RunMix},
      {"topk",
       "bytes on the wire: top-k select/heap routes vs full-sort baseline "
       "(rbc backend)",
       RunTopKBytes},
  };
  return benchutil::BenchMain(argc, argv, spec);
}
