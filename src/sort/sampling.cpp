#include "sort/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace jsort {

int SampleParams::TotalSamples(int p, std::int64_t n_over_p) const {
  const double logp = p > 1 ? std::log2(static_cast<double>(p)) : 1.0;
  double s = std::max(k1 * logp, k3);
  s = std::max(s, k2 * static_cast<double>(n_over_p));
  return std::max(1, static_cast<int>(s));
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

std::vector<double> SelectSplitters(Transport& tr,
                                    std::span<const double> local,
                                    int per_rank, int k, int tag,
                                    std::mt19937_64& rng) {
  const int p = tr.Size();
  std::vector<double> mine(static_cast<std::size_t>(per_rank));
  DrawSamples(local, per_rank, mine.data(), rng);
  std::vector<double> all;
  if (tr.Rank() == 0) all.resize(static_cast<std::size_t>(per_rank) * p);
  mpisim::WaitUntil(tr.Igather(mine.data(), per_rank, Datatype::kFloat64,
                               all.data(), 0, tag),
                    "SelectSplitters gather");
  std::vector<double> splitters(static_cast<std::size_t>(k - 1));
  if (tr.Rank() == 0) {
    std::sort(all.begin(), all.end());
    for (int i = 1; i < k; ++i) {
      splitters[static_cast<std::size_t>(i - 1)] =
          all[static_cast<std::size_t>(i) * all.size() / k];
    }
  }
  mpisim::WaitUntil(tr.Ibcast(splitters.data(), k - 1, Datatype::kFloat64, 0,
                              tag),
                    "SelectSplitters bcast");
  return splitters;
}

double MedianOf(std::span<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

}  // namespace jsort
