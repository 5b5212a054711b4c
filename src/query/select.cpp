#include "query/select.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <random>
#include <vector>

#include "mpisim/error.hpp"
#include "sort/sampling.hpp"

namespace jsort::query {

namespace {

/// Pivot candidates per sweep: a 128-byte rider. At 32 (the 512 bytes
/// JQuick's sweeps carry) a top-k selection at n/p = 256 moved more bytes
/// than sorting the data (bench_query's smoke topk rows).
constexpr int kCandidates = 8;
/// Half-width of the bracket, in positions among the sorted winners.
constexpr int kBracket = 1;
/// A window of at most this many elements rides one sweep whole.
constexpr std::int64_t kWindow = 32;

constexpr double kInf = std::numeric_limits<double>::infinity();

using Candidates = std::array<mpisim::PairDD, kCandidates>;

/// Fills every slot with a weighted-reservoir candidate of `window`
/// (sampling.hpp); a sweep's kMaxPairFirst fold of each slot is then a
/// uniform draw, with replacement, from the global window.
void Draw(std::span<const double> window, std::mt19937_64& rng,
          Candidates& cands) {
  for (mpisim::PairDD& c : cands) c = ReservoirCandidate(window, rng);
}

/// The candidates as a sweep's rider: each slot's winner lands in place.
ScanRider CandidateRider(Candidates& cands) {
  return ScanRider{cands.data(), cands.data(), kCandidates,
                   Datatype::kPairDoubleDouble, ReduceOp::kMaxPairFirst};
}

/// One blocking sweep: scans `count` int64 counts (prefixes into `incl`,
/// totals into `totals`) while `rider` rides it.
void Sweep(Transport& tr, const std::int64_t* counts, std::int64_t* incl,
           std::int64_t* totals, int count, const ScanRider& rider, int tag,
           SelectStats& stats) {
  mpisim::WaitUntil(tr.IscanWithTotal(counts, incl, totals, count,
                                      Datatype::kInt64, ReduceOp::kSum, tag,
                                      rider),
                    "DistributedSelect sweep");
  ++stats.sweeps;
}

}  // namespace

SelectResult DistributedSelect(Transport& tr, std::span<const double> local,
                               std::int64_t k, const SelectConfig& cfg,
                               SelectStats* stats) {
  SelectStats ignored;
  SelectStats& st = stats != nullptr ? *stats : ignored;
  st = SelectStats{};
  std::mt19937_64 rng(cfg.seed ^
                      (0x9E3779B97F4A7C15ull *
                       (static_cast<std::uint64_t>(tr.Rank()) + 1)));

  // The local share of the global active window. Every discarded element
  // is strictly outside the answer's equal run, so `below` (the global
  // count of discarded-small elements) turns window-relative counts into
  // exact global ranks; `size` is the window's global element count and
  // `offset` this rank's first position in its rank-major order.
  std::vector<double> window(local.begin(), local.end());
  Candidates cands;
  Draw(window, rng, cands);
  const std::int64_t n_local = static_cast<std::int64_t>(window.size());
  std::int64_t offset = 0;
  Sweep(tr, &n_local, &offset, &st.n_total, 1, CandidateRider(cands),
        cfg.tag, st);
  offset -= n_local;
  if (k < 0 || k >= st.n_total) {
    throw mpisim::UsageError("DistributedSelect: k out of range");
  }
  std::int64_t below = 0;
  std::int64_t size = st.n_total;

  while (true) {
    ++st.rounds;
    const std::int64_t r = k - below;
    if (size <= kWindow) {
      // The whole window rides the sweep: each rank fills its own run of
      // slots, and kMax keeps them over the others' -inf.
      std::vector<double> all(static_cast<std::size_t>(size), -kInf);
      std::copy(window.begin(), window.end(), all.begin() + offset);
      Sweep(tr, nullptr, nullptr, nullptr, 0,
            ScanRider{all.data(), all.data(), static_cast<int>(size),
                      Datatype::kFloat64, ReduceOp::kMax},
            cfg.tag, st);
      std::sort(all.begin(), all.end());
      const double v = all[static_cast<std::size_t>(r)];
      return SelectResult{
          v, below + (std::lower_bound(all.begin(), all.end(), v) -
                      all.begin()),
          below + (std::upper_bound(all.begin(), all.end(), v) -
                   all.begin())};
    }

    // Bracket the target between the winners kBracket positions either
    // side of its expected position among them (Floyd & Rivest, CACM
    // 1975); a side with no winner left is unbounded. At least one of
    // the two is an element of the window.
    std::array<double, kCandidates> sorted;
    for (int j = 0; j < kCandidates; ++j) sorted[j] = cands[j].second;
    std::sort(sorted.begin(), sorted.end());
    const auto at = static_cast<int>(r * kCandidates / size);
    const double lo = at >= kBracket ? sorted[at - kBracket] : -kInf;
    const double hi =
        at + kBracket < kCandidates ? sorted[at + kBracket] : kInf;

    // Five-way partition [< lo][== lo][(lo, hi)][== hi][> hi] (the fourth
    // is empty when lo == hi); the next candidates come from the middle.
    const auto lt_end = std::partition(window.begin(), window.end(),
                                       [&](double x) { return x < lo; });
    const auto lo_end = std::partition(lt_end, window.end(),
                                       [&](double x) { return x == lo; });
    const auto mid_end = std::partition(lo_end, window.end(),
                                        [&](double x) { return x < hi; });
    const auto hi_end = std::partition(mid_end, window.end(),
                                       [&](double x) { return x == hi; });
    const std::int64_t counts[4] = {lt_end - window.begin(), lo_end - lt_end,
                                     mid_end - lo_end, hi_end - mid_end};
    Draw(std::span<const double>(lo_end, mid_end), rng, cands);
    std::int64_t incl[4];
    std::int64_t global[4];
    Sweep(tr, counts, incl, global, 4, CandidateRider(cands), cfg.tag, st);

    // Window-relative ends of the parts below the `> hi` one.
    const std::int64_t lt = global[0];
    const std::int64_t eq_lo = lt + global[1];
    const std::int64_t mid = eq_lo + global[2];
    const std::int64_t eq_hi = mid + global[3];
    if (r < lt) {
      window.erase(lt_end, window.end());
      size = lt;
      offset = incl[0] - counts[0];
    } else if (r < eq_lo) {
      return SelectResult{lo, below + lt, below + eq_lo};
    } else if (r < mid) {
      // The candidates in hand were drawn from exactly this window.
      window.erase(mid_end, window.end());
      window.erase(window.begin(), lo_end);
      below += eq_lo;
      size = mid - eq_lo;
      offset = incl[2] - counts[2];
      continue;
    } else if (r < eq_hi) {
      return SelectResult{hi, below + mid, below + eq_hi};
    } else {
      window.erase(window.begin(), hi_end);
      below += eq_hi;
      size -= eq_hi;
      for (int j = 0; j < 4; ++j) offset -= incl[j] - counts[j];
    }
    // The target left the bracket, so a real bound's equal run left the
    // window with it: termination is unconditional. Unless the window
    // is small enough to ride whole, its candidates ride a sweep of
    // their own.
    if (size > kWindow) {
      Draw(window, rng, cands);
      Sweep(tr, nullptr, nullptr, nullptr, 0, CandidateRider(cands), cfg.tag,
            st);
    }
  }
}

}  // namespace jsort::query
