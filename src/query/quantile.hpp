// Streaming percentile / histogram summaries: fixed-size per-rank
// summaries merged with one reduction per pass, answering p50/p99-style
// queries with a bounded rank error.
//
// The summary is a `bins`-bucket histogram against shared ascending
// boundaries. Pass 0 uses equi-width boundaries over the global [min,
// max], which arrives with the global count in one
// Transport::IscanWithTotal sweep (the count is its scan block, {min,
// -max} a kMin rider); each refinement pass re-places the boundaries at
// the equi-depth points of the previous pass's CDF -- the splitter
// machinery (PartitionKWay's branchless splitter tree) classifies the
// local slice against the boundaries, and one summed allreduce of the
// fixed-size count vector merges the per-rank summaries. After r refinements the answer to any quantile query is off
// by at most the population of one bucket of the (approximately
// equi-depth) final histogram.
//
// Every step is exact integer/IEEE arithmetic on globally agreed values,
// so the distributed build is bit-identical to the sequential oracle
// (BuildQuantileSummaryLocal) over the concatenated input, on every
// backend.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "query/common.hpp"

namespace jsort::query {

struct QuantileConfig {
  int bins = 64;         // fixed summary size (counts per pass)
  int refinements = 1;   // equi-depth passes after the equi-width pass
  int tag = kQuantileTagBase;
};

struct QuantileStats {
  int reductions = 0;    // collectives (1 count+min/max + 1 per pass)
};

/// The merged summary; identical on every rank after a collective build.
class QuantileSummary {
 public:
  /// Value estimate for quantile q in [0, 1] (nearest-rank target,
  /// linear interpolation inside the target's bucket). Returns 0 for an
  /// empty summary.
  double Query(double q) const;

  /// Bound on |global rank of Query(q) - nearest-rank target|: the
  /// population of the bucket the answer falls in, plus one for the
  /// boundary ties.
  std::int64_t RankErrorBound(double q) const;

  std::int64_t total() const { return total_; }
  const std::vector<double>& boundaries() const { return boundaries_; }
  const std::vector<std::int64_t>& counts() const { return counts_; }

 private:
  friend QuantileSummary BuildQuantileSummary(Transport&,
                                              std::span<const double>,
                                              const QuantileConfig&,
                                              QuantileStats*);
  friend QuantileSummary BuildQuantileSummaryLocal(std::span<const double>,
                                                   const QuantileConfig&);

  /// Bucket index whose cumulative count covers rank `target`.
  std::size_t BucketOf(std::int64_t target) const;
  std::int64_t TargetRank(double q) const;

  std::vector<double> boundaries_;   // bins + 1, ascending
  std::vector<std::int64_t> counts_; // bins
  std::int64_t total_ = 0;
};

/// Collective build over the transport group: one count-and-range sweep,
/// then 1 + refinements count reductions over a fixed-size vector. The
/// result is identical on every rank.
QuantileSummary BuildQuantileSummary(Transport& tr,
                                     std::span<const double> local,
                                     const QuantileConfig& cfg = {},
                                     QuantileStats* stats = nullptr);

/// Sequential oracle: the same arithmetic over one local array. The
/// distributed build over any partition of `data` produces a summary
/// byte-identical to this one.
QuantileSummary BuildQuantileSummaryLocal(std::span<const double> data,
                                          const QuantileConfig& cfg = {});

}  // namespace jsort::query
