#include "query/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sort/partition.hpp"

namespace jsort::query {

namespace {

/// bins+1 equi-width boundaries over [lo, hi].
std::vector<double> EquiWidthBoundaries(double lo, double hi, int bins) {
  std::vector<double> b(static_cast<std::size_t>(bins) + 1);
  b.front() = lo;
  b.back() = hi;
  for (int i = 1; i < bins; ++i) {
    b[static_cast<std::size_t>(i)] =
        lo + (hi - lo) * (static_cast<double>(i) / static_cast<double>(bins));
  }
  return b;
}

/// Per-bucket population of `data` against the boundaries, via the
/// splitter-tree classifier (interior boundaries as splitters,
/// upper_bound semantics: x == boundary goes right).
std::vector<std::int64_t> CountBuckets(std::span<const double> data,
                                       const std::vector<double>& boundaries) {
  const int bins = static_cast<int>(boundaries.size()) - 1;
  const std::span<const double> splitters(boundaries.data() + 1,
                                          static_cast<std::size_t>(bins) - 1);
  const KWayBuckets buckets = PartitionKWay(data, splitters);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(bins), 0);
  for (int b = 0; b < bins; ++b) {
    counts[static_cast<std::size_t>(b)] = buckets.Count(b);
  }
  return counts;
}

/// Equi-depth re-placement: interior boundary i moves to the (linearly
/// interpolated) position of global rank i*total/bins in the previous
/// pass's CDF. Pure arithmetic on globally agreed values, so every rank
/// (and the sequential oracle) computes bit-identical boundaries.
std::vector<double> RefineBoundaries(const std::vector<double>& boundaries,
                                     const std::vector<std::int64_t>& counts,
                                     std::int64_t total) {
  const int bins = static_cast<int>(counts.size());
  std::vector<double> next = boundaries;
  std::size_t bucket = 0;
  std::int64_t below = 0;  // CDF value at boundaries[bucket]
  for (int i = 1; i < bins; ++i) {
    const std::int64_t target =
        total * static_cast<std::int64_t>(i) / static_cast<std::int64_t>(bins);
    while (bucket + 1 < counts.size() &&
           below + counts[bucket] <= target) {
      below += counts[bucket];
      ++bucket;
    }
    const double lo = boundaries[bucket];
    const double hi = boundaries[bucket + 1];
    const double frac =
        counts[bucket] > 0
            ? static_cast<double>(target - below) /
                  static_cast<double>(counts[bucket])
            : 0.0;
    next[static_cast<std::size_t>(i)] = lo + (hi - lo) * frac;
  }
  return next;
}

}  // namespace

std::int64_t QuantileSummary::TargetRank(double q) const {
  if (total_ <= 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto t = static_cast<std::int64_t>(
      std::llround(clamped * static_cast<double>(total_ - 1)));
  return std::clamp<std::int64_t>(t, 0, total_ - 1);
}

std::size_t QuantileSummary::BucketOf(std::int64_t target) const {
  std::int64_t below = 0;
  for (std::size_t b = 0; b + 1 < counts_.size(); ++b) {
    if (target < below + counts_[b]) return b;
    below += counts_[b];
  }
  return counts_.empty() ? 0 : counts_.size() - 1;
}

double QuantileSummary::Query(double q) const {
  if (total_ <= 0) return 0.0;
  const std::int64_t target = TargetRank(q);
  const std::size_t b = BucketOf(target);
  std::int64_t below = 0;
  for (std::size_t i = 0; i < b; ++i) below += counts_[i];
  const double lo = boundaries_[b];
  const double hi = boundaries_[b + 1];
  const double frac =
      counts_[b] > 0 ? static_cast<double>(target - below) /
                           static_cast<double>(counts_[b])
                     : 0.0;
  return lo + (hi - lo) * frac;
}

std::int64_t QuantileSummary::RankErrorBound(double q) const {
  if (total_ <= 0) return 0;
  return counts_[BucketOf(TargetRank(q))] + 1;
}

QuantileSummary BuildQuantileSummary(Transport& tr,
                                     std::span<const double> local,
                                     const QuantileConfig& cfg,
                                     QuantileStats* stats) {
  const int bins = std::max(2, cfg.bins);
  QuantileSummary s;
  int reductions = 0;

  // The global count and [min, max] in one sweep: n_local is the scan
  // block, {min, -max} a kMin rider.
  const std::int64_t n_local = static_cast<std::int64_t>(local.size());
  double mm_local[2] = {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::infinity()};
  for (const double x : local) {
    mm_local[0] = std::min(mm_local[0], x);
    mm_local[1] = std::min(mm_local[1], -x);
  }
  std::int64_t incl = 0;
  std::int64_t n_total = 0;
  double mm[2];
  mpisim::WaitUntil(
      tr.IscanWithTotal(&n_local, &incl, &n_total, 1, Datatype::kInt64,
                        ReduceOp::kSum, cfg.tag,
                        ScanRider{mm_local, mm, 2, Datatype::kFloat64,
                                  ReduceOp::kMin}),
      "BuildQuantileSummary count and range");
  ++reductions;
  s.total_ = n_total;
  if (n_total == 0) {
    s.boundaries_.assign(static_cast<std::size_t>(bins) + 1, 0.0);
    s.counts_.assign(static_cast<std::size_t>(bins), 0);
    if (stats != nullptr) stats->reductions = reductions;
    return s;
  }

  s.boundaries_ = EquiWidthBoundaries(mm[0], -mm[1], bins);
  for (int pass = 0; pass <= std::max(0, cfg.refinements); ++pass) {
    if (pass > 0) {
      s.boundaries_ = RefineBoundaries(s.boundaries_, s.counts_, n_total);
    }
    const std::vector<std::int64_t> mine = CountBuckets(local, s.boundaries_);
    s.counts_.assign(static_cast<std::size_t>(bins), 0);
    Allreduce(tr, mine.data(), s.counts_.data(), bins, Datatype::kInt64,
              ReduceOp::kSum, cfg.tag);
    ++reductions;
  }
  if (stats != nullptr) stats->reductions = reductions;
  return s;
}

QuantileSummary BuildQuantileSummaryLocal(std::span<const double> data,
                                          const QuantileConfig& cfg) {
  const int bins = std::max(2, cfg.bins);
  QuantileSummary s;
  s.total_ = static_cast<std::int64_t>(data.size());
  if (data.empty()) {
    s.boundaries_.assign(static_cast<std::size_t>(bins) + 1, 0.0);
    s.counts_.assign(static_cast<std::size_t>(bins), 0);
    return s;
  }
  double lo = data.front();
  double hi = data.front();
  for (const double x : data) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  // Mirror the distributed build's -max trick exactly so the boundary
  // arithmetic sees bit-identical endpoints.
  const double neg_hi = -hi;
  s.boundaries_ = EquiWidthBoundaries(lo, -neg_hi, bins);
  for (int pass = 0; pass <= std::max(0, cfg.refinements); ++pass) {
    if (pass > 0) {
      s.boundaries_ = RefineBoundaries(s.boundaries_, s.counts_, s.total_);
    }
    s.counts_ = CountBuckets(data, s.boundaries_);
  }
  return s;
}

}  // namespace jsort::query
