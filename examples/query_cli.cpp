// Distributed query application: answers a k-th / top-k / percentile
// query over a generated workload on every split backend without sorting
// the data, reporting the answer and the model time each backend paid.
//
// Usage:
//   ./examples/query_cli [p] [n_per_rank] [input] [k] [q]
//     p          ranks (default 32)
//     n_per_rank elements per rank (default 4096)
//     input      uniform | gaussian | sorted-asc | sorted-desc |
//                all-equal | few-distinct | zipf | bucket-killer
//     k          order statistic / top-k size (default n_total / 2)
//     q          percentile in [0, 1] (default 0.99)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mpisim/runtime.hpp"
#include "query/quantile.hpp"
#include "query/select.hpp"
#include "query/topk.hpp"
#include "sort/workload.hpp"

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
  const jsort::InputKind kind = ParseKind(argc > 3 ? argv[3] : "uniform");
  const std::int64_t n_total = quota * p;
  const std::int64_t k = argc > 4 ? std::atoll(argv[4]) : n_total / 2;
  const double q = argc > 5 ? std::atof(argv[5]) : 0.99;
  if (k < 1 || k > n_total) {
    std::fprintf(stderr, "k=%lld out of range [1, %lld]\n",
                 static_cast<long long>(k), static_cast<long long>(n_total));
    return 2;
  }

  std::printf("query_cli: p=%d n/p=%lld input=%s k=%lld q=%.4f\n", p,
              static_cast<long long>(quota), jsort::InputKindName(kind),
              static_cast<long long>(k), q);

  for (const jsort::Backend backend :
       {jsort::Backend::kRbc, jsort::Backend::kMpi, jsort::Backend::kIcomm}) {
    double kth = 0.0, top_last = 0.0, pctl = 0.0;
    std::int64_t bound = 0, rounds = 0, sweeps = 0;
    mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = p});
    rt.Run([&](mpisim::Comm& world) {
      auto tr = jsort::MakeTransport(backend, world);
      const auto local =
          jsort::GenerateInput(kind, world.Rank(), p, quota, 4242);

      jsort::query::SelectStats sstats;
      const jsort::query::SelectResult sel =
          jsort::query::DistributedSelect(*tr, local, k - 1, {}, &sstats);

      const std::vector<double> topk =
          jsort::query::DistributedTopK(*tr, local, k);

      const jsort::query::QuantileSummary summary =
          jsort::query::BuildQuantileSummary(*tr, local);

      if (world.Rank() == 0) {
        kth = sel.value;
        rounds = sstats.rounds;
        sweeps = sstats.sweeps;
        top_last = topk.empty() ? 0.0 : topk.back();
        pctl = summary.Query(q);
        bound = summary.RankErrorBound(q);
      }
    });
    std::printf("  backend=%-5s vtime=%10.1f units\n",
                jsort::BackendName(backend), rt.MaxVirtualTime());
    std::printf(
        "    k-th value (k=%lld)   : %.6f  (%lld select rounds, %lld sweeps)\n",
        static_cast<long long>(k), kth, static_cast<long long>(rounds),
        static_cast<long long>(sweeps));
    std::printf("    top-k last element    : %.6f  (== k-th: %s)\n", top_last,
                top_last == kth ? "yes" : "NO");
    std::printf("    q=%.4f percentile    : %.6f  (rank error <= %lld)\n", q,
                pctl, static_cast<long long>(bound));
  }
  return 0;
}
