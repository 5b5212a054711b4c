// Pivot selection policies for JQuick (Sections VII and VIII-A).
//
// Two policies are implemented:
//  * kRandomElement -- Section VII's description: "a random element is
//    selected and broadcasted". Distributedly, every rank draws a local
//    candidate and a weighted-reservoir key u^(1/m) (m = local element
//    count); a max-key reduction selects a globally uniform element with a
//    single (alpha log p)-latency reduce + bcast.
//  * kMedianOfSamples -- Section VIII-A: the pivot is the median of
//    max(k1 log p, k2 n/p, k3) samples drawn by random sampling.
//
// The sample sorts' splitter selection (SelectSplitters) draws from the
// same sampler.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "mpisim/datatype.hpp"
#include "sort/transport.hpp"

namespace jsort {

enum class PivotPolicy {
  kRandomElement,
  kMedianOfSamples,
};

/// Sample-count parameters of Section VIII-A: the total number of samples
/// is max(k1 * log2(p), k2 * (n/p), k3), split evenly across ranks.
struct SampleParams {
  double k1 = 2.0;
  double k2 = 0.0;
  double k3 = 16.0;

  /// Total samples for a task over p ranks with per-rank load n_over_p.
  int TotalSamples(int p, std::int64_t n_over_p) const;
};

/// Weighted-reservoir candidate: key = u^(1/m) for u ~ U(0,1), value = a
/// uniformly drawn local element. Reducing with kMaxPairFirst over all
/// ranks yields a globally uniform random element. Empty ranks contribute
/// key = -1 (never wins unless every rank is empty).
mpisim::PairDD ReservoirCandidate(std::span<const double> data,
                                  std::mt19937_64& rng);

/// Draws k samples uniformly with replacement from `data` into `out`
/// (out must hold k doubles). If data is empty, fills with quiet NaN-free
/// sentinel +inf so callers can filter.
void DrawSamples(std::span<const double> data, int k, double* out,
                 std::mt19937_64& rng);

/// Splitter selection of the sample sorts: every rank draws `per_rank`
/// samples of `local` (DrawSamples), group rank 0 gathers and sorts them
/// and picks the k-1 equidistant splitters all[i * |all| / k], and
/// broadcasts them on the same `tag`. Returns the splitters on every rank.
std::vector<double> SelectSplitters(Transport& tr,
                                    std::span<const double> local,
                                    int per_rank, int k, int tag,
                                    std::mt19937_64& rng);

/// Median of a scratch sample buffer (modifies it). Empty -> +inf.
double MedianOf(std::span<double> samples);

}  // namespace jsort
