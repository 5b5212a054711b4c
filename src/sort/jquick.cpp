#include "sort/jquick.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "sort/assignment.hpp"
#include "sort/exchange.hpp"
#include "sort/partition.hpp"
#include "sort/quickselect.hpp"

namespace jsort {
namespace {

// Exchange tags live in the user tag space. Each distributed level gets
// its own tag: a fast process may start level k+1 while a neighbour still
// receives level-k data, so level-k and level-k+1 exchange messages must
// never share an envelope. The (small, large) sides coalesce into one
// redistribution per level (jsort::exchange), so one tag per level
// suffices. The direct finish tags its all-gather's round r kTagDirect + r
// (r < 32, below the exchange tags): two tasks share at most one rank, the
// janus, so a (source, receiver) pair names one task, and in one round of
// one task a member hears from a single member.
constexpr int kTagExchangeBase = 256;
constexpr int kTagDirect = 128;

// Every pivot is the median of weighted-reservoir winners folded by a
// sweep. The root task sweeps its candidates alone (a sweep of zero scan
// elements); every other task starts at kPartition, holding the pivot its
// parent's sweep carried.
enum class Phase {
  kPivotBegin,    // root only: start the candidate sweep
  kPivotWait,     // root only: waiting on the candidate sweep
  kPartition,
  kTotalsWait,    // waiting on the prefix sums, totals and pivot winners
  kExchange,
  kSplit,
  kDone,
};

/// A finished per-rank slice of the output, positioned by its absolute
/// slot offset in the globally sorted sequence.
struct Slice {
  std::int64_t key = 0;
  std::vector<double> data;
};

struct Task {
  std::shared_ptr<Transport> tr;
  std::vector<double> data;      // elements this rank owns in the task
  CapacityLayout layout;
  std::int64_t global_off = 0;   // absolute slot of the task's first element
  int level = 0;

  Phase phase = Phase::kPivotBegin;
  Poll poll;                     // pending nonblocking operation
  std::mt19937_64 rng;           // candidate draws, seeded by Driver::Enqueue
  bool cmp_le = false;           // comparator of the current partition
  bool retried = false;          // degenerate-split retry performed
  double pivot = 0.0;

  // Partition / prefix-sum state. `cands` holds k weighted-reservoir
  // candidates per block -- the root's data before its first partition,
  // then the small and the large side -- and the sweep replaces them with
  // the global winners, whose medians are the pivots.
  std::vector<double> small, large;
  std::int64_t counts[2] = {0, 0};
  std::int64_t incl[2] = {0, 0};
  std::int64_t totals[2] = {0, 0};
  std::vector<mpisim::PairDD> cands;

  // Exchange state: the redistribution (jsort::exchange) appends into
  // these sinks; `poll` reports its completion during Phase::kExchange.
  std::vector<double> recv_small, recv_large;

  // Direct-finish state: the all-gather's pending round, whose send has
  // gone out. `data` grows into the union of the members' slices in
  // rotated order: block b is member (me + b) mod s's slice.
  int round = 0;

  int MyRank() const { return tr->Rank(); }
  std::int64_t MyCap() const { return layout.CapOf(MyRank()); }
  std::int64_t SliceKey() const {
    return global_off + layout.PrefixBefore(MyRank());
  }
  int CollTag() const { return 2 * level + (retried ? 1 : 0); }
  int ExchangeTag() const { return kTagExchangeBase + CollTag(); }
};

class Driver {
 public:
  Driver(std::shared_ptr<Transport> world, std::vector<double> local,
         const JQuickConfig& cfg, JQuickStats* stats)
      : cfg_(cfg), stats_(stats) {
    const std::int64_t quota = static_cast<std::int64_t>(local.size());
    auto root = std::make_unique<Task>();
    root->tr = std::move(world);
    root->data = std::move(local);
    const int p = root->tr->Size();
    root->layout = CapacityLayout{
        .p = p,
        .quota = quota,
        .cap_first = quota,
        .cap_last = quota,
    };
    Enqueue(std::move(root));
  }

  std::vector<double> Run() {
    DistributedPhase();
    DirectPhase();
    return Assemble();
  }

 private:
  /// Steps every active task for as long as any of them progresses; the
  /// wait yields only after a pass that made no progress.
  void DistributedPhase() {
    mpisim::WaitUntil(
        [&] {
          bool progressed = true;
          while (progressed && !active_.empty()) {
            progressed = false;
            for (std::size_t i = 0; i < active_.size();) {
              progressed |= Step(*active_[i]);
              if (active_[i]->phase == Phase::kDone) {
                active_.erase(active_.begin() +
                              static_cast<std::ptrdiff_t>(i));
              } else {
                ++i;
              }
            }
          }
          return active_.empty();
        },
        "JQuick distributed phase");
  }

  /// Advances one task through as many phases as possible. Returns true if
  /// any progress was made.
  bool Step(Task& t) {
    bool progressed = false;
    for (;;) {
      switch (t.phase) {
        case Phase::kPivotBegin:
          t.cands.clear();
          DrawCandidates(t, t.data);
          t.poll = t.tr->IscanWithTotal(nullptr, nullptr, nullptr, 0,
                                        Datatype::kInt64, ReduceOp::kSum,
                                        t.CollTag(), Rider(t));
          t.phase = Phase::kPivotWait;
          progressed = true;
          continue;
        case Phase::kPivotWait:
          if (!t.poll()) return progressed;
          t.pivot = WinnersMedian(t, 0);
          t.phase = Phase::kPartition;
          progressed = true;
          continue;
        case Phase::kPartition: {
          PartitionResult pr = Partition(t.data, t.pivot, t.cmp_le);
          t.small = std::move(pr.small);
          t.large = std::move(pr.large);
          t.counts[0] = static_cast<std::int64_t>(t.small.size());
          t.counts[1] = static_cast<std::int64_t>(t.large.size());
          t.cands.clear();
          DrawCandidates(t, t.small);
          DrawCandidates(t, t.large);
          t.poll = t.tr->IscanWithTotal(t.counts, t.incl, t.totals, 2,
                                        Datatype::kInt64, ReduceOp::kSum,
                                        t.CollTag(), Rider(t));
          t.phase = Phase::kTotalsWait;
          progressed = true;
          continue;
        }
        case Phase::kTotalsWait: {
          if (!t.poll()) return progressed;
          const std::int64_t total = t.layout.Total();
          if (t.totals[0] + t.totals[1] != total) {
            throw mpisim::Error("JQuick: internal: count totals mismatch");
          }
          const std::int64_t s = t.totals[0];
          if (s == 0 || s == total) {
            if (!t.retried) {
              // Degenerate split: retry once with the flipped comparator
              // (the duplicate-handling switch of [8]). If that is also
              // degenerate, every element equals the pivot.
              t.retried = true;
              t.cmp_le = !t.cmp_le;
              ReuniteData(t);
              t.phase = Phase::kPartition;
              progressed = true;
              continue;
            }
            ReuniteData(t);  // all elements equal: already sorted & balanced
            EmitSlice(t.SliceKey(), std::move(t.data));
            t.phase = Phase::kDone;
            return true;
          }
          t.phase = Phase::kExchange;
          StartExchange(t);
          progressed = true;
          continue;
        }
        case Phase::kExchange:
          if (!t.poll()) return progressed;
          t.phase = Phase::kSplit;
          progressed = true;
          continue;
        case Phase::kSplit:
          SplitTask(t);
          t.phase = Phase::kDone;
          return true;
        case Phase::kDone:
          return progressed;
      }
    }
  }

  /// Pivot candidates per block (Section VIII-A): PivotSamples of the
  /// task's group size p, or 1 under kRandomElement.
  int CandidatesPerBlock(int p) const {
    return cfg_.pivot == PivotPolicy::kRandomElement ? 1 : PivotSamples(p);
  }

  /// Appends one block of candidates (Efraimidis & Spirakis, "Weighted
  /// random sampling with a reservoir", IPL 2006): k local elements of
  /// `data`, each keyed u^(1/m) over its m elements. A sweep's
  /// kMaxPairFirst fold of each slot is then a uniform draw from the
  /// union of `data` over the group. A child's elements are exactly its
  /// side of its parent's partition on every rank, so the parent's sweep
  /// draws the child's candidates.
  void DrawCandidates(Task& t, std::span<const double> data) {
    const int k = CandidatesPerBlock(t.layout.p);
    for (int j = 0; j < k; ++j) {
      t.cands.push_back(ReservoirCandidate(data, t.rng));
    }
  }

  /// t.cands as the sweep's rider: each slot's winner lands in place.
  static ScanRider Rider(Task& t) {
    return ScanRider{t.cands.data(), t.cands.data(),
                     static_cast<int>(t.cands.size()),
                     Datatype::kPairDoubleDouble, ReduceOp::kMaxPairFirst};
  }

  /// The median of block `block`'s k sweep winners, the same on every
  /// rank. A block drawn from no elements at all sweeps to +inf, as
  /// MedianOf of no samples; a split that is not degenerate has both
  /// sides non-empty, so its children's winners are real elements.
  double WinnersMedian(const Task& t, std::size_t block) const {
    const auto k = static_cast<std::size_t>(CandidatesPerBlock(t.layout.p));
    std::vector<double> values(k);
    for (std::size_t j = 0; j < k; ++j) {
      values[j] = t.cands[block * k + j].second;
    }
    return MedianOf(values);
  }

  /// Restores t.data = small ++ large (order irrelevant for sorting).
  static void ReuniteData(Task& t) {
    t.data = std::move(t.small);
    t.data.insert(t.data.end(), t.large.begin(), t.large.end());
    t.small.clear();
    t.large.clear();
  }

  /// Hands the (small, large) sides to the redistribution layer: one
  /// coalesced exchange per level covering both regions. The layer copies
  /// the payload out synchronously, so the partition buffers are released
  /// immediately; Phase::kExchange polls t.poll until the sinks are full.
  void StartExchange(Task& t) {
    const std::int64_t s_excl = t.incl[0] - t.counts[0];
    const std::int64_t l_excl = t.incl[1] - t.counts[1];
    const std::int64_t s_total = t.totals[0];
    const std::int64_t expect_small =
        OverlapWithRegion(t.layout, t.MyRank(), 0, s_total);
    const std::int64_t expect_large =
        OverlapWithRegion(t.layout, t.MyRank(), s_total, t.layout.Total());
    t.recv_small.reserve(static_cast<std::size_t>(expect_small));
    t.recv_large.reserve(static_cast<std::size_t>(expect_large));

    std::vector<exchange::Segment> segments(2);
    segments[0] = exchange::Segment{
        t.small.data(), static_cast<std::int64_t>(t.small.size()), s_excl,
        &t.recv_small, expect_small};
    segments[1] = exchange::Segment{
        t.large.data(), static_cast<std::int64_t>(t.large.size()),
        s_total + l_excl, &t.recv_large, expect_large};
    exchange::ExchangeStats es;
    t.poll = exchange::StartSegmentExchange(t.tr, t.layout,
                                            std::move(segments),
                                            t.ExchangeTag(),
                                            exchange::Mode::kAuto, &es,
                                            cfg_.segment_bytes);
    if (stats_ != nullptr) {
      stats_->messages_sent += es.messages_sent;
      stats_->elements_sent += es.elements_sent;
      stats_->segments_sent += es.segments;
    }
    t.small.clear();
    t.small.shrink_to_fit();
    t.large.clear();
    t.large.shrink_to_fit();
    t.data.clear();
    t.data.shrink_to_fit();
  }

  void SplitTask(Task& t) {
    const std::int64_t s = t.totals[0];
    const int p = t.layout.p;
    const int rank = t.MyRank();
    const int left_last = t.layout.RankOfSlot(s - 1);
    const int right_first = t.layout.RankOfSlot(s);
    const bool in_left = t.layout.PrefixBefore(rank) < s;
    const bool in_right = t.layout.PrefixBefore(rank) + t.MyCap() > s;
    const bool janus = in_left && in_right;
    if (janus && stats_ != nullptr) stats_->janus_episodes += 1;

    CapacityLayout left_layout{
        .p = left_last + 1,
        .quota = t.layout.quota,
        .cap_first =
            left_last == 0 ? s : t.layout.cap_first,
        .cap_last = s - t.layout.PrefixBefore(left_last),
    };
    if (left_layout.p == 1) left_layout.cap_last = left_layout.cap_first;
    CapacityLayout right_layout{
        .p = p - right_first,
        .quota = t.layout.quota,
        .cap_first = t.layout.PrefixBefore(right_first) +
                     t.layout.CapOf(right_first) - s,
        .cap_last = right_first == p - 1
                        ? t.layout.PrefixBefore(right_first) +
                              t.layout.CapOf(right_first) - s
                        : t.layout.cap_last,
    };

    // Split schedule (Section VIII-C): a janus orders its two collective
    // group creations; alternating parity bounds creation cascades.
    bool left_first = true;
    if (janus && cfg_.schedule == SplitSchedule::kAlternating) {
      left_first = (rank % 2) == 0;
    }

    std::shared_ptr<Transport> left_tr, right_tr;
    auto make_left = [&] {
      if (in_left) left_tr = t.tr->Split(0, left_last);
    };
    auto make_right = [&] {
      if (in_right) right_tr = t.tr->Split(right_first, p - 1);
    };
    if (left_first) {
      make_left();
      make_right();
    } else {
      make_right();
      make_left();
    }

    if (in_left) {
      Enqueue(MakeChild(t, std::move(left_tr), std::move(t.recv_small),
                        left_layout, t.global_off, WinnersMedian(t, 0)));
    }
    if (in_right) {
      Enqueue(MakeChild(t, std::move(right_tr), std::move(t.recv_large),
                        right_layout, t.global_off + s,
                        WinnersMedian(t, 1)));
    }
  }

  std::unique_ptr<Task> MakeChild(Task& parent, std::shared_ptr<Transport> tr,
                                  std::vector<double> data,
                                  const CapacityLayout& layout,
                                  std::int64_t global_off, double pivot) {
    auto child = std::make_unique<Task>();
    child->tr = std::move(tr);
    child->data = std::move(data);
    child->layout = layout;
    child->global_off = global_off;
    child->level = parent.level + 1;
    child->cmp_le = ((child->level % 2) == 1);
    child->pivot = pivot;
    child->phase = Phase::kPartition;
    if (static_cast<std::int64_t>(child->data.size()) != child->MyCap()) {
      throw mpisim::Error("JQuick: internal: perfect balance violated");
    }
    if (stats_ != nullptr) {
      stats_->distributed_levels =
          std::max(stats_->distributed_levels, child->level);
    }
    return child;
  }

  /// A task that splits draws its candidates from a generator seeded by
  /// its identity -- the sort's seed, this world rank, the task's global
  /// offset, level and size -- so the split tree does not depend on the
  /// order in which a janus steps its two tasks.
  void Enqueue(std::unique_ptr<Task> task) {
    if (FinishesDirectly(task->layout)) {
      direct_.push_back(std::move(task));
      return;
    }
    // seed_seq keeps the low 32 bits of each value.
    const auto off = static_cast<std::uint64_t>(task->global_off);
    std::seed_seq identity{
        cfg_.seed, cfg_.seed >> 32,
        static_cast<std::uint64_t>(mpisim::Ctx().world_rank), off, off >> 32,
        static_cast<std::uint64_t>(task->level),
        static_cast<std::uint64_t>(task->layout.p)};
    task->rng.seed(identity);
    active_.push_back(std::move(task));
  }

  /// Whether a task of s ranks is cheaper to finish directly than to
  /// split, in the runtime's alpha-beta model (alpha and beta the larger of
  /// the two levels, as in SecondRoundSamples). The price is the linear
  /// exchange's: a member's s-1 sends and s-1 receives of up to m words, m
  /// the quota, which bounds every capacity and is the same for every task
  /// of one sort. It bounds the all-gather's ceil(log2 s) rounds from above,
  /// since they carry the same s-1 slices and a round of b slices needs at
  /// most b segments. One more split costs the sweep's 2 ceil(log2 s) hops of
  /// 4k + 4 words (k candidates per side), an exchange of about two
  /// messages out and two in carrying m words each way, and the children's
  /// direct finishes, whose larger one has floor(s/2) + 1 ranks:
  ///   2(s-1) msg <= 2 ceil(log2 s)(alpha + beta(4k+4)) + 4 alpha
  ///                 + 2 beta m + 2 floor(s/2) msg,
  /// msg = alpha + beta m, a segmented message paying alpha per segment.
  /// Re-pricing it at the log-round cost waits until local work is charged:
  /// on messages alone that price finishes whole 64-rank sorts at n/p <= 64
  /// without a split and leaves the quickselect over their union free. The
  /// rule reads only the layout and the global cost model, so every member
  /// decides alike; s <= 2 always passes.
  bool FinishesDirectly(const CapacityLayout& layout) const {
    const mpisim::CostModel& cost = mpisim::Ctx().runtime->options().cost;
    const double alpha = std::max(cost.AlphaFor(true), cost.AlphaFor(false));
    const double beta = std::max(cost.BetaFor(true), cost.BetaFor(false));
    const int s = layout.p;
    const std::int64_t m = layout.quota;
    const double words = static_cast<double>(m);
    const double msg =
        alpha * static_cast<double>(mpisim::AlltoallvSegmentsOf(
                    m, sizeof(double), cfg_.segment_bytes)) +
        beta * words;
    const double hops = std::ceil(std::log2(static_cast<double>(s)));
    const double sweep_words = 4.0 * CandidatesPerBlock(s) + 4.0;
    const double direct = 2.0 * (s - 1) * msg;
    const double split = 2.0 * hops * (alpha + beta * sweep_words) +
                         4.0 * alpha + 2.0 * beta * words +
                         2.0 * (s / 2) * msg;
    return direct <= split;
  }

  /// Second phase (Section VII): the tasks that finish directly, deferred
  /// so a janus never delays a larger subtask. Each one all-gathers its
  /// members' slices in ceil(log2 s) rounds (Bruck et al., see jquick.hpp)
  /// and keeps slots [PrefixBefore(me), PrefixBefore(me) + cap) of the
  /// union, selected by quickselect. Every task sends its first round up
  /// front and each next round as soon as it holds the round's blocks, and
  /// a receive is taken only once its message is there, so a janus runs
  /// both its tasks' rounds at once and never holds one task's partner
  /// behind the other task's receive. A single-rank task sends nothing and
  /// sorts its own data; a two-rank task is the paper's pair exchange.
  void DirectPhase() {
    for (const auto& t : direct_) {
      if (stats_ != nullptr) {
        ++(t->layout.p == 1 ? stats_->base_tasks_1p : stats_->direct_tasks);
      }
      t->data.reserve(static_cast<std::size_t>(t->layout.Total()));
      if (t->layout.p > 1) SendRound(*t);
    }
    mpisim::WaitUntil(
        [&] {
          do {
            std::erase_if(direct_, [&](const std::unique_ptr<Task>& t) {
              if (t->round < Rounds(t->layout.p)) return false;
              FinishDirect(*t);
              return true;
            });
          } while (std::any_of(
              direct_.begin(), direct_.end(),
              [&](const std::unique_ptr<Task>& t) { return TakeRound(*t); }));
          return direct_.empty();
        },
        "JQuick direct finish");
  }

  /// Rounds of an s-rank task's all-gather: ceil(log2 s).
  static int Rounds(int s) {
    return std::bit_width(static_cast<unsigned>(s - 1));
  }

  /// Elements that round r carries from member `from`: its first
  /// min(d, s - d) blocks, d = 2^r -- the slices of members from, from + 1,
  /// ... (mod s).
  static std::int64_t RoundWords(const CapacityLayout& layout, int from,
                                 int r) {
    const int s = layout.p;
    const int d = 1 << r;
    std::int64_t words = 0;
    for (int b = 0; b < std::min(d, s - d); ++b) {
      words += layout.CapOf((from + b) % s);
    }
    return words;
  }

  /// Sends the pending round's blocks to member me - d. The message
  /// honours the segment limit like every other payload path: both sides
  /// know its length from the capacities, so sender and receiver walk the
  /// same segment ranges, sequenced by per-envelope FIFO order.
  void SendRound(Task& t) {
    const int s = t.layout.p;
    const int dest = (t.MyRank() - (1 << t.round) + s) % s;
    const std::int64_t n = RoundWords(t.layout, t.MyRank(), t.round);
    const std::int64_t segs =
        mpisim::AlltoallvSegmentsOf(n, sizeof(double), cfg_.segment_bytes);
    for (std::int64_t g = 0; g < segs; ++g) {
      const auto [at, len] = mpisim::AlltoallvSegmentRange(
          n, sizeof(double), cfg_.segment_bytes, g);
      t.tr->Send(t.data.data() + at, static_cast<int>(len),
                 Datatype::kFloat64, dest, kTagDirect + t.round);
    }
    if (stats_ != nullptr) {
      stats_->messages_sent += 1;
      stats_->elements_sent += n;
      stats_->segments_sent += segs;
    }
  }

  /// Appends the pending round's blocks from member me + d, the one member
  /// that sends this rank the round's tag in this task, once they are
  /// there, and sends the next round, whose blocks this rank now holds;
  /// returns whether they were there.
  bool TakeRound(Task& t) {
    const int tag = kTagDirect + t.round;
    if (!t.tr->IprobeAny(tag, nullptr)) return false;
    const int src = (t.MyRank() + (1 << t.round)) % t.layout.p;
    const std::int64_t n = RoundWords(t.layout, src, t.round);
    const std::size_t at = t.data.size();
    t.data.resize(at + static_cast<std::size_t>(n));
    const std::int64_t segs =
        mpisim::AlltoallvSegmentsOf(n, sizeof(double), cfg_.segment_bytes);
    for (std::int64_t g = 0; g < segs; ++g) {
      const auto [off, len] = mpisim::AlltoallvSegmentRange(
          n, sizeof(double), cfg_.segment_bytes, g);
      t.tr->Recv(t.data.data() + at + off, static_cast<int>(len),
                 Datatype::kFloat64, src, tag);
    }
    if (++t.round < Rounds(t.layout.p)) SendRound(t);
    return true;
  }

  /// Keeps this member's slots of the gathered union, sorted.
  void FinishDirect(Task& t) {
    std::vector<double> all = std::move(t.data);
    const auto lo =
        static_cast<std::size_t>(t.layout.PrefixBefore(t.MyRank()));
    const auto hi = lo + static_cast<std::size_t>(t.MyCap());
    QuickselectSmallest(all, hi, cfg_.seed ^ 0xB5297A4Du);
    QuickselectSmallest(std::span<double>(all).first(hi), lo,
                        cfg_.seed ^ 0xB5297A4Du);
    all.resize(hi);
    all.erase(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(lo));
    std::sort(all.begin(), all.end());
    EmitSlice(t.SliceKey(), std::move(all));
  }

  void EmitSlice(std::int64_t key, std::vector<double> data) {
    slices_.push_back(Slice{key, std::move(data)});
  }

  std::vector<double> Assemble() {
    std::sort(slices_.begin(), slices_.end(),
              [](const Slice& a, const Slice& b) { return a.key < b.key; });
    std::vector<double> out;
    for (Slice& s : slices_) {
      out.insert(out.end(), s.data.begin(), s.data.end());
    }
    return out;
  }

  JQuickConfig cfg_;
  JQuickStats* stats_;
  std::vector<std::unique_ptr<Task>> active_;
  std::vector<std::unique_ptr<Task>> direct_;
  std::vector<Slice> slices_;
};

}  // namespace

std::vector<double> JQuickSort(const std::shared_ptr<Transport>& world,
                               std::vector<double> local,
                               const JQuickConfig& cfg, JQuickStats* stats) {
  if (world == nullptr) throw mpisim::UsageError("JQuickSort: null transport");
  if (stats != nullptr) *stats = JQuickStats{};
  const std::size_t quota = local.size();
  Driver driver(world, std::move(local), cfg, stats);
  std::vector<double> out = driver.Run();
  if (out.size() != quota) {
    throw mpisim::Error("JQuick: internal: output size != quota");
  }
  return out;
}

std::vector<double> JQuickSortPadded(const std::shared_ptr<Transport>& world,
                                     std::vector<double> local,
                                     const JQuickConfig& cfg,
                                     JQuickStats* stats) {
  if (world == nullptr) throw mpisim::UsageError("JQuickSort: null transport");
  // One sweep agrees on the global count and, as a kMax rider, the padded
  // quota: the maximum local size over all ranks.
  const std::int64_t mine = static_cast<std::int64_t>(local.size());
  std::int64_t incl = 0;
  std::int64_t n_total = 0;
  std::int64_t quota = 0;
  mpisim::WaitUntil(
      world->IscanWithTotal(&mine, &incl, &n_total, 1, Datatype::kInt64,
                            ReduceOp::kSum, /*tag=*/96,
                            ScanRider{&mine, &quota, 1, Datatype::kInt64,
                                      ReduceOp::kMax}),
      "JQuickSortPadded quota");
  local.resize(static_cast<std::size_t>(quota),
               std::numeric_limits<double>::infinity());
  std::vector<double> out = JQuickSort(world, std::move(local), cfg, stats);
  // Perfect balance: this rank holds global slots [rank * quota, (rank + 1)
  // * quota), and the first n_total of them are the input, genuine +inf
  // elements included; the padding is the rest.
  const std::int64_t keep = std::clamp<std::int64_t>(
      n_total - static_cast<std::int64_t>(world->Rank()) * quota, 0, quota);
  out.resize(static_cast<std::size_t>(keep));
  return out;
}

}  // namespace jsort
