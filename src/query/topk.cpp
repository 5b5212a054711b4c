#include "query/topk.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "mpisim/error.hpp"
#include "mpisim/runtime.hpp"
#include "query/select.hpp"
#include "sort/exchange.hpp"
#include "sort/quickselect.hpp"

namespace jsort::query {

const char* TopKRouteName(TopKRoute r) {
  switch (r) {
    case TopKRoute::kSelect: return "select";
    case TopKRoute::kLocalHeap: return "heap";
    case TopKRoute::kAuto: return "auto";
  }
  return "?";
}

namespace {

/// Ships this rank's candidate elements to group rank `root` over the
/// sparse exchange (only non-empty contributions pay a message; the
/// root's own candidates never touch the wire) and returns, on the root,
/// everything received sorted ascending. Empty on every other rank.
std::vector<double> SparseGatherSorted(Transport& tr,
                                       std::vector<double> mine, int root,
                                       int tag, TopKStats* stats) {
  const bool am_root = tr.Rank() == root;
  std::vector<SparseBlock> sends;
  if (!am_root && !mine.empty()) {
    sends.push_back(SparseBlock{root, mine.data(),
                                static_cast<int>(mine.size())});
  }
  if (stats != nullptr) {
    stats->candidates_sent =
        am_root ? 0 : static_cast<std::int64_t>(mine.size());
  }
  std::vector<SparseDelivery> received;
  mpisim::WaitUntil(
      tr.IsparseAlltoallv(sends, Datatype::kFloat64, &received, tag),
      "DistributedTopK candidate gather");
  if (!am_root) return {};
  std::vector<double> out = std::move(mine);
  for (const SparseDelivery& msg : received) {
    const std::size_t n = msg.bytes.size() / sizeof(double);
    const std::size_t base = out.size();
    out.resize(base + n);
    std::memcpy(out.data() + base, msg.bytes.data(), n * sizeof(double));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sends this rank's candidates (at most `cap` elements) to group rank
/// `root` as one message, empty or not, and returns, on the root, its own
/// candidates and everything received, sorted ascending. Empty on every
/// other rank. Since every member sends exactly one message, the root
/// needs no termination round: it receives them in rank order, so its
/// clock does not depend on which message arrives first.
std::vector<double> LinearGatherSorted(Transport& tr,
                                       std::vector<double> mine,
                                       std::int64_t cap, int root, int tag,
                                       TopKStats* stats) {
  const bool am_root = tr.Rank() == root;
  if (stats != nullptr) {
    stats->candidates_sent =
        am_root ? 0 : static_cast<std::int64_t>(mine.size());
  }
  if (!am_root) {
    tr.Send(mine.data(), static_cast<int>(mine.size()), Datatype::kFloat64,
            root, tag);
    return {};
  }
  std::vector<double> out = std::move(mine);
  const int max_count = static_cast<int>(
      std::min<std::int64_t>(cap, std::numeric_limits<int>::max()));
  std::vector<double> msg(static_cast<std::size_t>(max_count));
  for (int src = 0; src < tr.Size(); ++src) {
    if (src == root) continue;
    Status st;
    tr.Recv(msg.data(), max_count, Datatype::kFloat64, src, tag, &st);
    out.insert(out.end(), msg.begin(),
               msg.begin() + static_cast<std::ptrdiff_t>(
                                 st.bytes / sizeof(double)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<double> DistributedTopK(Transport& tr,
                                    std::span<const double> local,
                                    std::int64_t k, const TopKConfig& cfg,
                                    TopKStats* stats) {
  if (k < 0) throw mpisim::UsageError("DistributedTopK: k must be >= 0");
  const std::int64_t n_local = static_cast<std::int64_t>(local.size());
  std::int64_t n_total = 0;
  Allreduce(tr, &n_local, &n_total, 1, Datatype::kInt64, ReduceOp::kSum,
            cfg.tag);
  const std::int64_t k_eff = std::min(k, n_total);
  if (k_eff == 0) return {};  // same decision on every rank

  TopKRoute route = cfg.route;
  if (route == TopKRoute::kAuto) {
    // Route choice from globally shared quantities only, priced in the
    // substrate's own alpha-beta model over the terms in which the two
    // routes differ (both pay the count allreduce above):
    //  * heap: the root takes p-1 candidate messages of min(k, n/p) words;
    //  * select: DistributedSelect's sweeps, each 2 ceil(log2 p) hops of
    //    at most 24 words (8 candidate pairs beside 8 counts), then the
    //    tie exscan's ceil(log2 p) rounds, about 2 alpha each, then
    //    min(p-1, k) messages carrying the k winners. The sparse gather's
    //    two termination barriers are left out: with them the price
    //    would pick the heap at bench_query's k = 2,048 cell, where the
    //    selection measures faster.
    // A selection of rank k-1 of n starts 0.6 + 0.4 log2(n) + 0.3 log2(k)
    // sweeps on average (fitted to n = 2^13..2^19, k = 1..2^11).
    const mpisim::CostModel& cost = mpisim::Ctx().runtime->options().cost;
    const double p = static_cast<double>(tr.Size());
    const double hops = std::ceil(std::log2(p));
    const double want = static_cast<double>(k_eff);
    const double per_rank =
        std::min(want, std::ceil(static_cast<double>(n_total) / p));
    const double heap_cost = (p - 1.0) * (cost.alpha + per_rank * cost.beta);
    const double sweeps =
        0.6 + 0.4 * std::log2(static_cast<double>(n_total)) +
        0.3 * std::log2(want);
    const double select_cost =
        sweeps * 2.0 * hops * (cost.alpha + 24.0 * cost.beta) +
        2.0 * hops * cost.alpha +
        std::min(p - 1.0, want) * cost.alpha + want * cost.beta;
    route = heap_cost <= select_cost ? TopKRoute::kLocalHeap
                                     : TopKRoute::kSelect;
  }
  if (stats != nullptr) stats->route_taken = route;

  std::vector<double> out;
  if (route == TopKRoute::kSelect) {
    SelectStats sel_stats;
    const SelectResult sel = DistributedSelect(
        tr, local, k_eff - 1, SelectConfig{cfg.seed, cfg.tag}, &sel_stats);
    if (stats != nullptr) stats->select_rounds = sel_stats.rounds;
    // Everything below the threshold qualifies outright; the remaining
    // k_eff - less slots go to ties, apportioned deterministically in
    // rank order by one exscan over per-rank tie counts.
    std::vector<double> mine;
    std::int64_t ties = 0;
    for (const double x : local) {
      if (x < sel.value) {
        mine.push_back(x);
      } else if (x == sel.value) {
        ++ties;
      }
    }
    const std::int64_t need = k_eff - sel.less;
    const std::int64_t tie_offset =
        exchange::ExscanCount(tr, ties, cfg.tag + 2);
    const std::int64_t take =
        std::clamp<std::int64_t>(need - tie_offset, 0, ties);
    mine.insert(mine.end(), static_cast<std::size_t>(take), sel.value);
    out = SparseGatherSorted(tr, std::move(mine), cfg.root, cfg.tag + 3,
                             stats);
  } else {
    // Local-heap fallback: each of the global k smallest is among its
    // own rank's k smallest, so per-rank local selection plus one merge
    // at the root is exact.
    std::vector<double> mine(local.begin(), local.end());
    const std::size_t m = static_cast<std::size_t>(
        std::min<std::int64_t>(k_eff, n_local));
    QuickselectSmallest(mine, m,
                        cfg.seed ^ (0x9E3779B97F4A7C15ull *
                                    (static_cast<std::uint64_t>(tr.Rank()) +
                                     1)));
    mine.resize(m);
    out = LinearGatherSorted(tr, std::move(mine), k_eff, cfg.root,
                             cfg.tag + 3, stats);
  }
  if (tr.Rank() == cfg.root) {
    out.resize(static_cast<std::size_t>(k_eff));
  }
  return out;
}

}  // namespace jsort::query
