// Figure 8: Janus Quicksort with RBC communicators vs native MPI
// communicators, sweeping n/p on a fixed process count (uniform doubles).
// Both use the alternating split schedule, as in the paper; a cascaded
// native-MPI backend is added because Section VIII-C reports that
// cascades slow the native version by further orders of magnitude while
// leaving RBC unchanged, and a mpi_slow backend runs the alternating
// schedule on the slow-create_group vendor profile (the paper's "IBM MPI"
// column). Every row carries vtime_ratio_vs_rbc (1.0 on rbc rows).
//
// Paper shape: for n/p = 1 RBC wins 3.5..17x; for moderate inputs
// (n/p <= 2^10) the gap peaks (factor >1000 vs IBM MPI); for large inputs
// the curves converge as data movement dominates communicator creation.
#include <algorithm>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"

namespace {

using jsort::Backend;

/// Median over `reps` sorts, each with its own JQuickConfig::seed (1, 2,
/// ...), so a row times that many split trees, not one.
benchutil::Measurement MeasureSort(mpisim::Comm& world, Backend backend,
                                   int quota, jsort::SplitSchedule schedule,
                                   int reps) {
  jsort::JQuickConfig cfg;
  cfg.schedule = schedule;
  cfg.seed = 0;
  return benchutil::MeasureOnRanks(world, reps, [&] {
    ++cfg.seed;
    auto input = jsort::GenerateInput(jsort::InputKind::kUniform,
                                      world.Rank(), world.Size(), quota, 7);
    std::shared_ptr<jsort::Transport> tr =
        jsort::MakeTransport(backend, world);
    jsort::JQuickSort(tr, std::move(input), cfg);
  });
}

void RunJQuick(benchutil::BenchContext& ctx) {
  const int ranks = ctx.smoke() ? 8 : 64;
  const int reps = ctx.reps(3);
  const int max_log = ctx.smoke() ? 4 : 14;
  const int points = max_log / 2 + 1;
  std::vector<benchutil::Measurement> rbc_ms(points), alt_ms(points),
      casc_ms(points), slow_ms(points);
  {
    mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = ranks});
    rt.Run([&](mpisim::Comm& world) {
      for (int lg = 0; lg <= max_log; lg += 2) {
        const int quota = 1 << lg;
        const auto rbcm = MeasureSort(world, Backend::kRbc, quota,
                                      jsort::SplitSchedule::kAlternating,
                                      reps);
        const auto alt = MeasureSort(world, Backend::kMpi, quota,
                                     jsort::SplitSchedule::kAlternating,
                                     reps);
        const auto casc = MeasureSort(world, Backend::kMpi, quota,
                                      jsort::SplitSchedule::kCascaded, reps);
        if (world.Rank() == 0) {
          rbc_ms[static_cast<std::size_t>(lg / 2)] = rbcm;
          alt_ms[static_cast<std::size_t>(lg / 2)] = alt;
          casc_ms[static_cast<std::size_t>(lg / 2)] = casc;
        }
      }
    });
  }
  {
    mpisim::Runtime rt(mpisim::Runtime::Options{
        .num_ranks = ranks,
        .profile = mpisim::VendorProfile::kSlowCreateGroup});
    rt.Run([&](mpisim::Comm& world) {
      for (int lg = 0; lg <= max_log; lg += 2) {
        const int quota = 1 << lg;
        const auto slow = MeasureSort(world, Backend::kMpi, quota,
                                      jsort::SplitSchedule::kAlternating,
                                      reps);
        if (world.Rank() == 0) {
          slow_ms[static_cast<std::size_t>(lg / 2)] = slow;
        }
      }
    });
  }
  for (int lg = 0; lg <= max_log; lg += 2) {
    const std::size_t i = static_cast<std::size_t>(lg / 2);
    const long long quota = 1 << lg;
    const double denom = std::max(rbc_ms[i].vtime, 1e-9);
    ctx.Row("fig8_jquick", "rbc", ranks, quota, rbc_ms[i],
            {{"vtime_ratio_vs_rbc", 1.0}});
    ctx.Row("fig8_jquick", "mpi_alt", ranks, quota, alt_ms[i],
            {{"vtime_ratio_vs_rbc", alt_ms[i].vtime / denom}});
    ctx.Row("fig8_jquick", "mpi_casc", ranks, quota, casc_ms[i],
            {{"vtime_ratio_vs_rbc", casc_ms[i].vtime / denom}});
    ctx.Row("fig8_jquick", "mpi_slow", ranks, quota, slow_ms[i],
            {{"vtime_ratio_vs_rbc", slow_ms[i].vtime / denom}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchSpec spec;
  spec.binary = "bench_fig8_jquick";
  spec.figure = "Figure 8";
  spec.description =
      "JQuick with RBC vs native MPI communicators (alternating/cascaded "
      "schedules, fast/slow vendor profiles) over the n/p sweep";
  spec.default_p = 64;
  spec.default_reps = 3;
  spec.sections = {{"jquick", "n/p sweep over the four backends",
                    RunJQuick}};
  return benchutil::BenchMain(argc, argv, spec);
}
