// Pivot selection policies for JQuick (Sections VII and VIII-A).
//
// Two policies are implemented:
//  * kRandomElement -- Section VII's description: "a random element is
//    selected and broadcasted". Distributedly, every rank draws a local
//    candidate and a weighted-reservoir key u^(1/m) (m = local element
//    count); a max-key fold over the group selects a globally uniform
//    element. JQuick folds it inside a prefix-sum sweep (jquick.hpp).
//  * kMedianOfSamples -- Section VIII-A: the pivot is the median of
//    max(k1 log p, k2 n/p, k3) samples drawn by random sampling; JQuick
//    draws that many such candidates, each a uniform draw with
//    replacement.
//
// The sample sorts' splitter selection (SelectSplitters) draws from the
// same sampler, weights every sample by its rank's element count, and
// learns the global n from its own gather. Where the runtime's alpha-beta
// model says a larger sample pays for itself (SecondRoundSamples), it
// draws one in a second round: the largest bucket sets a sample sort's
// exchange time, and its excess over n/p shrinks with the samples per
// bucket (Blelloch et al., SPAA 1991).
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "mpisim/clock.hpp"
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

/// SelectSplitters' price of a second round, for k buckets over p ranks
/// holding n_total elements after a first round of `first_round` samples
/// per rank: the per-rank count B of the second round, or 0 for none.
/// The largest of k buckets cut from S uniform samples exceeds n/k by the
/// relative excess eps(S) = sqrt(2 ln k * k / S), so a second round saves
///   beta_min * (n_total/p) * (eps(p * first_round) - eps(p * B))
/// on the largest receive, and costs two more collectives plus the root's
/// gather bytes, 2 ceil(log2 p) * alpha_max + beta_max * p * B. B ranges
/// over the powers of two from 2 * first_round up to n_total/p (and p * B
/// within an int); the best net saving wins if it is positive. On a two-level model alpha_max and
/// beta_max are the inter-node values and beta_min the intra-node one, so
/// the price errs towards one round. Pure: no communication.
int SecondRoundSamples(int p, int k, std::int64_t n_total, int first_round,
                       const mpisim::CostModel& cost);

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

/// Splitter selection of the sample sorts, collective over the group, all
/// on `tag`; returns the k-1 splitters on every rank.
///  * Round 1: every rank draws `per_rank` samples of `local`
///    (DrawSamples) and group rank 0 gathers [n_r, samples] from each rank
///    r. Each sample of rank r weighs n_r (an empty rank's +inf draws
///    weigh 0), and splitter i is the first sample, in sorted order, whose
///    cumulative weight exceeds i * W / k, W the total weight, compared in
///    exact integer arithmetic. With equal n_r this is all[i * |all| / k].
///    The root broadcasts [B, k-1 splitters], B = SecondRoundSamples of
///    the gathered n.
///  * Round 2, only when B > 0: every rank draws B more samples, and the
///    root gathers them, picks by round 1's weights and broadcasts the k-1
///    splitters that replace round 1's.
/// So one round is one Igather and one Ibcast, two rounds are two each.
std::vector<double> SelectSplitters(Transport& tr,
                                    std::span<const double> local,
                                    int per_rank, int k, int tag,
                                    std::mt19937_64& rng);

/// Median of a scratch sample buffer (modifies it). Empty -> +inf.
double MedianOf(std::span<double> samples);

}  // namespace jsort
