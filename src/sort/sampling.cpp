#include "sort/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace jsort {

int PivotSamples(int p) {
  const double logp = p > 1 ? std::log2(static_cast<double>(p)) : 0.0;
  return static_cast<int>(std::max(2.0 * logp, 16.0));
}

mpisim::PairDD ReservoirCandidate(std::span<const double> data,
                                  std::mt19937_64& rng) {
  if (data.empty()) {
    return mpisim::PairDD{-1.0, std::numeric_limits<double>::infinity()};
  }
  std::uniform_real_distribution<double> unit(std::nextafter(0.0, 1.0), 1.0);
  const double u = unit(rng);
  const double key =
      std::pow(u, 1.0 / static_cast<double>(data.size()));
  std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
  return mpisim::PairDD{key, data[pick(rng)]};
}

void DrawSamples(std::span<const double> data, int k, double* out,
                 std::mt19937_64& rng) {
  if (data.empty()) {
    std::fill_n(out, k, std::numeric_limits<double>::infinity());
    return;
  }
  std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
  for (int i = 0; i < k; ++i) out[i] = data[pick(rng)];
}

namespace {

/// One gathered sample at the root, weighted by its rank's element count.
struct WeightedSample {
  double value;
  std::int64_t weight;
};

/// Cumulative weights times k: count * n * k can exceed 64 bits.
using Wide = unsigned __int128;

/// Writes the k-1 weighted splitters of SelectSplitters to `out`: rank
/// r's gather block is `skip` words and then its `count` samples, each
/// weighing n[r]. Ties in value need no order: the splitter is a value,
/// and the cumulative weight at either end of a run of equal values does
/// not depend on their order. All weights 0 (no data anywhere) yields
/// +inf.
void PickWeighted(std::span<const double> gathered, int skip, int count,
                  std::span<const std::int64_t> n, int k, double* out) {
  std::vector<WeightedSample> all;
  all.reserve(static_cast<std::size_t>(count) * n.size());
  Wide total = 0;
  for (std::size_t r = 0; r < n.size(); ++r) {
    const double* mine = gathered.data() + r * (skip + count) + skip;
    for (int j = 0; j < count; ++j) all.push_back({mine[j], n[r]});
    total += Wide(n[r]) * Wide(count);
  }
  std::sort(all.begin(), all.end(),
            [](const WeightedSample& a, const WeightedSample& b) {
              return a.value < b.value;
            });
  // Splitter i is all[j] for the least j with cum(0..j) * k > i * total.
  std::size_t j = 0;
  Wide cum = 0;
  for (int i = 1; i < k; ++i) {
    while (j < all.size() &&
           (cum + Wide(all[j].weight)) * Wide(k) <= total * Wide(i)) {
      cum += Wide(all[j].weight);
      ++j;
    }
    out[i - 1] = j < all.size() ? all[j].value
                                : std::numeric_limits<double>::infinity();
  }
}

}  // namespace

int SecondRoundSamples(int p, int k, std::int64_t n_total, int first_round,
                       const mpisim::CostModel& cost) {
  if (p < 2 || k < 2 || first_round < 1 || n_total <= 0) return 0;
  const double alpha_max = std::max(cost.AlphaFor(true), cost.AlphaFor(false));
  const double beta_max = std::max(cost.BetaFor(true), cost.BetaFor(false));
  const double beta_min = std::min(cost.BetaFor(true), cost.BetaFor(false));
  const double two_ln_k_k = 2.0 * std::log(static_cast<double>(k)) * k;
  const auto excess = [&](double samples) {
    return std::sqrt(two_ln_k_k / samples);
  };
  const double per_rank = static_cast<double>(n_total) / p;
  const double eps_first = excess(static_cast<double>(p) * first_round);
  const double hops = std::ceil(std::log2(static_cast<double>(p)));
  const std::int64_t cap = std::min<std::int64_t>(
      n_total / p, std::numeric_limits<int>::max() / p);
  int best = 0;
  double best_net = 0.0;
  for (std::int64_t b = 2 * std::int64_t{first_round}; b <= cap; b *= 2) {
    const double saving =
        beta_min * per_rank *
        (eps_first - excess(static_cast<double>(p) * static_cast<double>(b)));
    const double price =
        2.0 * hops * alpha_max + beta_max * p * static_cast<double>(b);
    if (saving - price > best_net) {
      best_net = saving - price;
      best = static_cast<int>(b);
    }
  }
  return best;
}

std::vector<double> SelectSplitters(Transport& tr,
                                    std::span<const double> local,
                                    int per_rank, int k, int tag,
                                    std::mt19937_64& rng) {
  const int p = tr.Size();
  const bool root = tr.Rank() == 0;
  // Round 1: [n_r, per_rank samples] from every rank.
  const int block = per_rank + 1;
  std::vector<double> mine(static_cast<std::size_t>(block));
  mine[0] = static_cast<double>(local.size());
  DrawSamples(local, per_rank, mine.data() + 1, rng);
  std::vector<double> all;
  if (root) all.resize(static_cast<std::size_t>(block) * p);
  mpisim::WaitUntil(tr.Igather(mine.data(), block, Datatype::kFloat64,
                               all.data(), 0, tag),
                    "SelectSplitters gather");
  // The root's reply: [B, k-1 splitters]; n holds round 1's weights.
  std::vector<double> reply(static_cast<std::size_t>(k));
  std::vector<std::int64_t> n;
  if (root) {
    n.resize(static_cast<std::size_t>(p));
    std::int64_t n_total = 0;
    for (int r = 0; r < p; ++r) {
      n[static_cast<std::size_t>(r)] =
          static_cast<std::int64_t>(all[static_cast<std::size_t>(r) * block]);
      n_total += n[static_cast<std::size_t>(r)];
    }
    reply[0] = SecondRoundSamples(p, k, n_total, per_rank,
                                  mpisim::Ctx().runtime->options().cost);
    PickWeighted(all, 1, per_rank, n, k, reply.data() + 1);
  }
  mpisim::WaitUntil(tr.Ibcast(reply.data(), k, Datatype::kFloat64, 0, tag),
                    "SelectSplitters bcast");
  const int second = static_cast<int>(reply[0]);
  if (second > 0) {
    // Round 2: B samples from every rank, weighted by round 1's n_r.
    mine.resize(static_cast<std::size_t>(second));
    DrawSamples(local, second, mine.data(), rng);
    if (root) all.resize(static_cast<std::size_t>(second) * p);
    mpisim::WaitUntil(tr.Igather(mine.data(), second, Datatype::kFloat64,
                                 all.data(), 0, tag),
                      "SelectSplitters gather");
    if (root) PickWeighted(all, 0, second, n, k, reply.data() + 1);
    mpisim::WaitUntil(tr.Ibcast(reply.data() + 1, k - 1, Datatype::kFloat64,
                                0, tag),
                      "SelectSplitters bcast");
  }
  return std::vector<double>(reply.begin() + 1, reply.end());
}

double MedianOf(std::span<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

}  // namespace jsort
