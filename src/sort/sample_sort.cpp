#include "sort/sample_sort.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "sort/exchange.hpp"
#include "sort/partition.hpp"
#include "sort/sampling.hpp"

namespace jsort {
namespace {

constexpr int kTagBucket = 1024;
constexpr int kTagSplitter = 1025;

}  // namespace

std::vector<double> SampleSort(const std::shared_ptr<Transport>& world,
                               std::vector<double> local,
                               const SampleSortConfig& cfg,
                               SampleSortStats* stats) {
  if (world == nullptr) throw mpisim::UsageError("SampleSort: null transport");
  if (stats != nullptr) *stats = SampleSortStats{};
  Transport& tr = *world;
  const int p = tr.Size();
  if (p == 1) {
    std::sort(local.begin(), local.end());
    if (stats != nullptr) {
      stats->final_elements = static_cast<std::int64_t>(local.size());
    }
    return local;
  }
  std::mt19937_64 rng(cfg.seed ^
                      (0x9E3779B97F4A7C15ull *
                       (static_cast<std::uint64_t>(mpisim::Ctx().world_rank) +
                        1)));

  // 1) Splitter selection: every rank contributes its size and
  //    kFirstRoundSamples samples; the root picks p-1 size-weighted
  //    splitters, after a second, larger round where the cost model says
  //    it pays.
  const std::vector<double> splitters = SelectSplitters(
      tr, local, kFirstRoundSamples, p, kTagSplitter, rng);

  // 2) Local partition into p buckets with the branchless splitter-tree
  //    kernel (bucket-major flat layout, ready for the flat exchange).
  KWayBuckets buckets = PartitionKWay(local, splitters);
  local.clear();
  local.shrink_to_fit();

  // 3) All-to-all: bucket i to rank i over the redistribution layer's
  //    dense Alltoallv path. Empty buckets are exchanged too, so every
  //    rank pays exactly p-1 payload startups -- the p-1 startups of
  //    Section IV.
  std::vector<int> ranks(static_cast<std::size_t>(p));
  std::iota(ranks.begin(), ranks.end(), 0);
  exchange::ExchangeStats es;
  std::vector<double> out = exchange::ExchangeBuckets(
      tr, buckets.elements, buckets.offsets, ranks, kTagBucket, &es,
      cfg.segment_bytes, cfg.exchange_mode);
  buckets.elements.clear();
  if (stats != nullptr) {
    stats->messages_sent += es.messages_sent;
    stats->segments_sent += es.segments;
  }

  // 4) Local sort of the received bucket.
  std::sort(out.begin(), out.end());
  if (stats != nullptr) {
    stats->final_elements = static_cast<std::int64_t>(out.size());
  }
  return out;
}

}  // namespace jsort
