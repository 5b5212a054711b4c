// Microbenchmarks of the local (single-rank) kernels the sorter is built
// from: partition, k-way partition (branchless splitter tree vs the
// seed's upper_bound baseline), quickselect, local sort, greedy
// assignment, sampling. These bound the non-communication terms of
// Theorem 1 (O(n/p) partition work, O(n/p log(n/p)) base-case sort).
//
// No simulated runtime is involved: p = 1, vtime = 0, and the primary
// metric is `mitems_per_sec` (million items per second, items = processed
// elements; for assign_chunks, spanned ranks). Timing is a median over
// reps of batched wall-clock iterations, sized so one measurement does a
// few million items of work.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <vector>

#include "harness.hpp"
#include "sort/assignment.hpp"
#include "sort/partition.hpp"
#include "sort/quickselect.hpp"
#include "sort/sampling.hpp"
#include "sort/workload.hpp"

namespace {

std::vector<double> MakeInput(std::int64_t n) {
  return jsort::GenerateInput(jsort::InputKind::kUniform, 0, 1, n, 99);
}

/// Times `op` (which processes `items` items per call) with enough batched
/// iterations for a stable reading, `reps` times; reports the median
/// per-call wall time and throughput.
template <typename Op>
void Report(benchutil::BenchContext& ctx, const char* bench,
            const char* backend, long long count, std::int64_t items,
            int reps, Op&& op) {
  const std::int64_t target_items = ctx.smoke() ? (1 << 18) : (1 << 22);
  const int inner = static_cast<int>(
      std::max<std::int64_t>(1, target_items / std::max<std::int64_t>(
                                                   1, items)));
  std::vector<double> per_call_ms;
  op();  // warm-up (first-touch, allocator)
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < inner; ++i) op();
    const auto t1 = std::chrono::steady_clock::now();
    per_call_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count() / inner);
  }
  std::sort(per_call_ms.begin(), per_call_ms.end());
  const double ms = per_call_ms[per_call_ms.size() / 2];
  const double mitems =
      static_cast<double>(items) / std::max(ms, 1e-9) / 1e3;  // per second
  ctx.Row(bench, backend, 1, count,
          benchutil::Measurement{ms, 0.0},
          {{"mitems_per_sec", mitems}});
}

void RunPartition(benchutil::BenchContext& ctx) {
  const int reps = ctx.reps(5);
  const int max_log = ctx.smoke() ? 12 : 18;
  for (int lg = 8; lg <= max_log; lg += 2) {
    const std::int64_t n = std::int64_t{1} << lg;
    const auto data = MakeInput(n);
    Report(ctx, "kernel_partition", "in_place", n, n, reps, [&] {
      auto copy = data;
      auto r = jsort::PartitionInPlace(copy, 0.5, true);
      benchutil::DoNotOptimize(&r);
    });
  }
}

/// Equidistant splitters over the uniform [0,1) input.
std::vector<double> MakeSplitters(int k) {
  std::vector<double> s(static_cast<std::size_t>(k) - 1);
  for (int i = 1; i < k; ++i) {
    s[static_cast<std::size_t>(i) - 1] = static_cast<double>(i) / k;
  }
  return s;
}

void RunPartitionKWay(benchutil::BenchContext& ctx) {
  const int reps = ctx.reps(5);
  const std::int64_t n = ctx.smoke() ? (1 << 12) : (1 << 16);
  const auto data = MakeInput(n);
  const int max_k = ctx.smoke() ? 64 : 1024;
  for (int k = 4; k <= max_k; k *= 4) {
    const auto splitters = MakeSplitters(k);
    Report(ctx, "kernel_partition_kway", "splitter_tree", k, n, reps, [&] {
      auto r = jsort::PartitionKWay(data, splitters);
      benchutil::DoNotOptimize(&r);
    });
    // The seed's classification loop (per-element upper_bound +
    // per-bucket push_back): the baseline the branchless tree replaces.
    Report(ctx, "kernel_partition_kway", "upper_bound", k, n, reps, [&] {
      std::vector<std::vector<double>> buckets(splitters.size() + 1);
      for (double x : data) {
        const auto it =
            std::upper_bound(splitters.begin(), splitters.end(), x);
        buckets[static_cast<std::size_t>(it - splitters.begin())]
            .push_back(x);
      }
      benchutil::DoNotOptimize(&buckets);
    });
  }
}

void RunSelectAndSort(benchutil::BenchContext& ctx) {
  const int reps = ctx.reps(5);
  const int max_log = ctx.smoke() ? 12 : 18;
  for (int lg = 8; lg <= max_log; lg += 2) {
    const std::int64_t n = std::int64_t{1} << lg;
    const auto data = MakeInput(n);
    Report(ctx, "kernel_quickselect", "local", n, n, reps, [&] {
      auto copy = data;
      jsort::QuickselectSmallest(copy, copy.size() / 2);
      benchutil::DoNotOptimize(copy.data());
    });
    Report(ctx, "kernel_local_sort", "local", n, n, reps, [&] {
      auto copy = data;
      std::sort(copy.begin(), copy.end());
      benchutil::DoNotOptimize(copy.data());
    });
  }
}

void RunAssignAndSample(benchutil::BenchContext& ctx) {
  const int reps = ctx.reps(5);
  const int max_p = ctx.smoke() ? 64 : 4096;
  for (int p = 4; p <= max_p; p *= 4) {
    const jsort::CapacityLayout layout{
        .p = p, .quota = 1000, .cap_first = 500, .cap_last = 700};
    // A sender interval spanning most of the machine (worst case).
    Report(ctx, "kernel_assign_chunks", "greedy", p, p, reps, [&] {
      auto chunks = jsort::AssignChunks(layout, 250, layout.Total() - 333);
      benchutil::DoNotOptimize(chunks.data());
    });
  }
  const std::int64_t n = ctx.smoke() ? (1 << 12) : (1 << 16);
  const auto data = MakeInput(n);
  std::mt19937_64 rng(5);
  Report(ctx, "kernel_sampling", "reservoir", n, n, reps, [&] {
    auto c = jsort::ReservoirCandidate(data, rng);
    benchutil::DoNotOptimize(&c);
  });
  const int samples = ctx.smoke() ? 64 : 1024;
  std::vector<double> sample_buf(static_cast<std::size_t>(samples));
  Report(ctx, "kernel_sampling", "median_of_samples", samples, samples, reps,
         [&] {
           jsort::DrawSamples(data, samples, sample_buf.data(), rng);
           auto med = jsort::MedianOf(sample_buf);
           benchutil::DoNotOptimize(&med);
         });
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchSpec spec;
  spec.binary = "bench_local_kernels";
  spec.figure = "Theorem 1 (local terms)";
  spec.description =
      "single-rank kernel throughput: partition, k-way partition vs "
      "upper_bound baseline, quickselect, sort, assignment, sampling";
  spec.default_p = 1;
  spec.default_reps = 5;
  spec.sections = {
      {"partition", "two-way partition kernels over the size sweep",
       RunPartition},
      {"partition_kway", "branchless splitter tree vs upper_bound baseline",
       RunPartitionKWay},
      {"select_sort", "quickselect and std::sort baselines",
       RunSelectAndSort},
      {"assign_sample", "greedy assignment and sampling kernels",
       RunAssignAndSample}};
  return benchutil::BenchMain(argc, argv, spec);
}
