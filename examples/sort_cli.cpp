// Distributed sorting application: sorts a generated workload with Janus
// Quicksort (or a baseline) over the simulated cluster and verifies the
// result, reporting timing, balance and recursion statistics.
//
// Usage:
//   ./examples/sort_cli [p] [n_per_rank] [algo] [input] [transport]
//     p          ranks (default 32)
//     n_per_rank elements per rank (default 4096)
//     algo       jquick | hypercube | samplesort | multilevel
//                (default jquick)
//     input      uniform | gaussian | sorted-asc | sorted-desc |
//                all-equal | few-distinct | zipf | bucket-killer
//     transport  rbc | mpi | icomm (default rbc; jquick only)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sort/jsort.hpp"

namespace {

jsort::InputKind ParseKind(const std::string& s) {
  using K = jsort::InputKind;
  for (K k : {K::kUniform, K::kGaussian, K::kSortedAsc, K::kSortedDesc,
              K::kAllEqual, K::kFewDistinct, K::kZipf, K::kBucketKiller}) {
    if (s == jsort::InputKindName(k)) return k;
  }
  std::fprintf(stderr, "unknown input kind '%s'\n", s.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const int p = argc > 1 ? std::atoi(argv[1]) : 32;
  const std::int64_t quota = argc > 2 ? std::atoll(argv[2]) : 4096;
  const std::string algo = argc > 3 ? argv[3] : "jquick";
  const jsort::InputKind kind =
      ParseKind(argc > 4 ? argv[4] : "uniform");
  const std::string transport = argc > 5 ? argv[5] : "rbc";

  std::printf("sort_cli: p=%d n/p=%lld algo=%s input=%s transport=%s\n", p,
              static_cast<long long>(quota), algo.c_str(),
              jsort::InputKindName(kind), transport.c_str());

  jsort::Backend backend = jsort::Backend::kRbc;
  if (!jsort::ParseBackend(transport, &backend)) {
    std::fprintf(stderr, "unknown transport '%s'\n", transport.c_str());
    return 2;
  }

  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = p});
  rt.Run([&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto input = jsort::GenerateInput(kind, world.Rank(), p, quota, 4242);
    const auto before = jsort::GlobalFingerprint(input, rw);

    std::shared_ptr<jsort::Transport> tr =
        jsort::MakeTransport(backend, world);

    mpisim::Barrier(world);
    const double v0 = mpisim::Ctx().clock.Now();
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<double> out;
    jsort::JQuickStats jstats;
    jsort::HypercubeStats hstats;
    if (algo == "hypercube") {
      out = jsort::HypercubeQuicksort(tr, std::move(input), &hstats);
    } else if (algo == "samplesort") {
      out = jsort::SampleSort(tr, std::move(input));
    } else if (algo == "multilevel") {
      out = jsort::MultilevelSampleSort(tr, std::move(input));
    } else {
      out = jsort::JQuickSort(tr, std::move(input), {}, &jstats);
    }

    const double vtime = mpisim::Ctx().clock.Now() - v0;
    mpisim::Barrier(world);
    const auto t1 = std::chrono::steady_clock::now();
    double vmax = 0.0;
    mpisim::Allreduce(&vtime, &vmax, 1, mpisim::Datatype::kFloat64,
                      mpisim::ReduceOp::kMax, world);

    const bool sorted = jsort::IsGloballySorted(out, rw);
    const auto after = jsort::GlobalFingerprint(out, rw);
    const auto bal = jsort::GlobalBalance(out, rw);
    std::int64_t max_levels = 0;
    const std::int64_t my_levels = jstats.distributed_levels;
    mpisim::Allreduce(&my_levels, &max_levels, 1, mpisim::Datatype::kInt64,
                      mpisim::ReduceOp::kMax, world);

    if (world.Rank() == 0) {
      std::printf("  model time      : %.1f units\n", vmax);
      std::printf("  wall time       : %.2f ms\n",
                  std::chrono::duration<double, std::milli>(t1 - t0).count());
      std::printf("  globally sorted : %s\n", sorted ? "yes" : "NO");
      std::printf("  permutation ok  : %s\n",
                  before == after ? "yes" : "NO");
      std::printf("  balance         : min=%lld max=%lld%s\n",
                  static_cast<long long>(bal.min_count),
                  static_cast<long long>(bal.max_count),
                  bal.min_count == bal.max_count ? "  (perfect)" : "");
      if (algo == "jquick") {
        std::printf("  recursion depth : %lld distributed levels\n",
                    static_cast<long long>(max_levels));
      }
      if (!sorted || !(before == after)) std::exit(1);
    }
  });
  return 0;
}
