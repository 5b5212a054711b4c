// Ablation: pivot policy (Section VIII-A). Random-element pivots are
// cheap but split badly; median-of-samples pivots keep the recursion
// shallow (the `levels` row field = maximum distributed recursion depth
// over ranks). Both policies fold weighted-reservoir candidates in the
// same sweeps: the root task's in one sweep of zero scan elements, every
// deeper task's in its parent's prefix-sum sweep. One candidate per block
// under random-element pivots and 16 (p <= 256) under median-of-samples,
// so the policies differ in sweep bytes only. A second section contrasts
// JQuick's perfect output balance with hypercube quicksort's drift on a
// zipf input (`min_count`/`max_count` row fields; JQuick must report
// min_count == max_count).
#include <string>
#include <vector>

#include "harness.hpp"
#include "sort/checks.hpp"
#include "sort/hypercube_qs.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"

namespace {

struct Result {
  benchutil::Measurement m;
  int levels = 0;
};

Result MeasureJQuick(mpisim::Comm& world, jsort::PivotPolicy policy,
                     jsort::InputKind kind, int quota, int reps) {
  jsort::JQuickConfig cfg;
  cfg.pivot = policy;
  Result res;
  res.m = benchutil::MeasureOnRanks(world, reps, [&] {
    auto input = jsort::GenerateInput(kind, world.Rank(), world.Size(),
                                      quota, 23);
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    jsort::JQuickStats stats;
    jsort::JQuickSort(tr, std::move(input), cfg, &stats);
    int local_levels = stats.distributed_levels;
    int max_levels = 0;
    mpisim::Allreduce(&local_levels, &max_levels, 1, mpisim::Datatype::kInt32,
                      mpisim::ReduceOp::kMax, world);
    res.levels = max_levels;
  });
  return res;
}

void RunPivot(benchutil::BenchContext& ctx) {
  const int ranks = ctx.smoke() ? 16 : 64;
  const int quota = ctx.smoke() ? 64 : 256;
  const int reps = ctx.reps(3);
  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = ranks});
  rt.Run([&](mpisim::Comm& world) {
    for (auto kind :
         {jsort::InputKind::kUniform, jsort::InputKind::kGaussian,
          jsort::InputKind::kZipf, jsort::InputKind::kSortedDesc}) {
      const Result med = MeasureJQuick(
          world, jsort::PivotPolicy::kMedianOfSamples, kind, quota, reps);
      const Result rnd = MeasureJQuick(
          world, jsort::PivotPolicy::kRandomElement, kind, quota, reps);
      if (world.Rank() == 0) {
        const std::string input(jsort::InputKindName(kind));
        ctx.Row("ablate_pivot", "median_of_samples", ranks, quota, med.m,
                {{"input", input}, {"levels", med.levels}});
        ctx.Row("ablate_pivot", "random_element", ranks, quota, rnd.m,
                {{"input", input}, {"levels", rnd.levels}});
      }
    }
  });
}

void RunBalance(benchutil::BenchContext& ctx) {
  const int ranks = ctx.smoke() ? 16 : 64;
  const int quota = ctx.smoke() ? 64 : 256;
  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = ranks});
  rt.Run([&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto measure = [&](bool jquick) {
      auto input = jsort::GenerateInput(jsort::InputKind::kZipf, world.Rank(),
                                        world.Size(), quota, 29);
      auto tr = jsort::MakeRbcTransport(rw);
      benchutil::Measurement m{};
      const auto out = jquick ? jsort::JQuickSort(tr, std::move(input))
                              : jsort::HypercubeQuicksort(tr, std::move(input));
      const auto bal = jsort::GlobalBalance(out, rw);
      if (world.Rank() == 0) {
        ctx.Row("ablate_balance", jquick ? "jquick" : "hypercube", ranks,
                quota, m,
                {{"min_count", static_cast<std::int64_t>(bal.min_count)},
                 {"max_count", static_cast<std::int64_t>(bal.max_count)}});
      }
    };
    measure(/*jquick=*/true);
    measure(/*jquick=*/false);
  });
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchSpec spec;
  spec.binary = "bench_ablate_pivot";
  spec.figure = "Section VIII-A";
  spec.description =
      "pivot-policy ablation (median-of-samples vs random element) plus the "
      "JQuick-vs-hypercube balance contrast on zipf input";
  spec.default_p = 64;
  spec.default_reps = 3;
  spec.sections = {
      {"pivot", "vtime and recursion depth per pivot policy and input",
       RunPivot},
      {"balance", "output balance contrast on a zipf input", RunBalance}};
  return benchutil::BenchMain(argc, argv, spec);
}
