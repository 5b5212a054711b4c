#include "sched/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>

#include "mpisim/runtime.hpp"
#include "query/quantile.hpp"
#include "query/select.hpp"
#include "query/topk.hpp"
#include "sort/checks.hpp"
#include "sort/jquick.hpp"
#include "sort/multilevel_sort.hpp"
#include "sort/sample_sort.hpp"
#include "sort/workload.hpp"

namespace jsort::sched {

namespace {

/// Logical tags of the off-clock verification collectives. Safe against
/// the sorters' tags because verification runs strictly after the job's
/// sort completed on every member of the (private) job group.
constexpr int kVerifyGatherTag = 7050;
constexpr int kVerifyVerdictTag = 7051;

}  // namespace

/// Shared-memory coordination of the rank threads: a reusable barrier
/// that polls the substrate's abort flag (so a failing rank cannot wedge
/// the others) plus the per-rank report board. Both live outside mpisim
/// on purpose: service bookkeeping must not advance any virtual clock.
struct SortService::SharedState {
  struct RankReport {
    int job = -1;  // -1: rank idled this wave
    double end_clock = 0.0;
    double split_vtime = 0.0;
    double sort_vtime = 0.0;
    std::int64_t elements = 0;
    std::int64_t messages = 0;
    double answer = 0.0;  // significant on the job's group root only
    bool ok = true;
  };

  explicit SharedState(int n) : parties(n), reports(static_cast<std::size_t>(n)) {}

  void AwaitWave() {
    mpisim::RankContext& rc = mpisim::Ctx();
    std::unique_lock<std::mutex> lock(mu);
    const std::uint64_t gen = generation;
    if (++arrived == parties) {
      arrived = 0;
      ++generation;
      cv.notify_all();
      return;
    }
    // Out-of-band barrier: register as a spin-wait (known=false) so a
    // rank that died mid-wave yields a forensic wait-graph dump instead
    // of a bare timeout. Registered after the arrival bookkeeping above
    // -- only waiting ranks count as blocked.
    mpisim::ScopedWait guard(mpisim::MakeWait("SortService wave barrier"));
    const auto deadline = std::chrono::steady_clock::now() +
                          rc.runtime->options().deadlock_timeout;
    while (generation == gen) {
      if (rc.runtime->Aborted()) {
        throw mpisim::AbortedError(rc.runtime->FirstFailedRank());
      }
      if (cv.wait_until(lock, std::min(deadline,
                                       std::chrono::steady_clock::now() +
                                           std::chrono::milliseconds(50))) ==
              std::cv_status::timeout &&
          std::chrono::steady_clock::now() >= deadline) {
        throw mpisim::DeadlockError(mpisim::BuildDeadlockReport(
            *rc.runtime,
            "SortService: wave barrier exceeded the deadlock timeout"));
      }
    }
  }

  const int parties;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::uint64_t generation = 0;
  std::vector<RankReport> reports;
};

SortService::SortService(int ranks, std::vector<JobSpec> jobs,
                         ServiceConfig cfg)
    : ranks_(ranks),
      jobs_(std::move(jobs)),
      cfg_(std::move(cfg)),
      shared_(std::make_unique<SharedState>(ranks)) {
  if (ranks < 1) {
    throw mpisim::UsageError("SortService: ranks must be positive");
  }
}

SortService::~SortService() = default;

namespace {

/// Runs a verification functor with the virtual clock saved and restored,
/// so the checkers' collectives never show up in any reported timing.
template <typename F>
bool OffClock(F&& verify) {
  mpisim::RankContext& rc = mpisim::Ctx();
  const double saved = rc.clock.Now();
  const bool ok = verify();
  rc.clock.Reset();
  rc.clock.Advance(saved);
  return ok;
}

/// Verification of one sort job's output on its own group: every member
/// contributes (locally_sorted, count, first, last); the group root checks
/// the boundary chain and element conservation and broadcasts the
/// verdict. Run it off the clock.
bool VerifyJob(const std::shared_ptr<Transport>& sub, const JobSpec& spec,
               std::span<const double> out) {
  const int p = sub->Size();
  double desc[4] = {
      std::is_sorted(out.begin(), out.end()) ? 1.0 : 0.0,
      static_cast<double>(out.size()),
      out.empty() ? 0.0 : out.front(),
      out.empty() ? 0.0 : out.back(),
  };
  std::vector<double> all(static_cast<std::size_t>(4 * p));
  mpisim::WaitUntil(sub->Igather(desc, 4, Datatype::kFloat64, all.data(), 0,
                                 kVerifyGatherTag),
                    "VerifyJob gather");
  double verdict = 1.0;
  if (sub->Rank() == 0) {
    bool ok = true;
    std::int64_t total = 0;
    bool have_prev = false;
    double prev = 0.0;
    for (int r = 0; r < p; ++r) {
      const double* d = &all[static_cast<std::size_t>(4 * r)];
      ok = ok && d[0] != 0.0;
      const std::int64_t count = static_cast<std::int64_t>(d[1]);
      total += count;
      if (count > 0) {
        if (have_prev && d[2] < prev) ok = false;
        prev = d[3];
        have_prev = true;
      }
    }
    ok = ok && total == spec.n_total;
    verdict = ok ? 1.0 : 0.0;
  }
  mpisim::WaitUntil(
      sub->Ibcast(&verdict, 1, Datatype::kFloat64, 0, kVerifyVerdictTag),
      "VerifyJob verdict bcast");
  return verdict != 0.0;
}

}  // namespace

ServiceStats SortService::Run(mpisim::Comm& world) {
  if (world.IsNull() || world.Size() != ranks_) {
    throw mpisim::UsageError(
        "SortService::Run: world size does not match the service");
  }
  const int me = world.Rank();
  mpisim::RankContext& rc = mpisim::Ctx();
  const std::shared_ptr<Transport> root = MakeTransport(cfg_.backend, world);
  Scheduler sched(ranks_, jobs_, cfg_.scheduler);

  ServiceStats stats;
  stats.jobs.resize(jobs_.size());

  while (true) {
    const std::vector<Admission> wave = sched.NextWave();
    if (wave.empty()) break;
    ++stats.waves;

    SharedState::RankReport& mine =
        shared_->reports[static_cast<std::size_t>(me)];
    mine = SharedState::RankReport{};
    const Admission* my_job = nullptr;
    for (const Admission& a : wave) {
      if (a.first <= me && me <= a.last) {
        my_job = &a;
        break;
      }
    }

    if (my_job != nullptr) {
      const Admission& a = *my_job;
      // An idle member's clock is always <= the admission vtime (ranges
      // only start once released, at the releasing jobs' max clock), so
      // Merge sets the whole group to a common start.
      rc.clock.Merge(a.start_vtime);
      const double t0 = rc.clock.Now();
      const std::shared_ptr<Transport> sub = root->Split(a.first, a.last);
      const double t_split = rc.clock.Now();

      const int jp = a.width;
      const int jr = sub->Rank();
      const std::int64_t quota =
          a.spec.n_total / jp + (jr < a.spec.n_total % jp ? 1 : 0);
      std::vector<double> input =
          GenerateInput(a.spec.input, jr, jp, quota, a.spec.seed);
      if (quota > 0) {
        // Sorts pay the comparison-sort term; queries touch each local
        // element O(1) times in expectation, so they pay a linear scan.
        const double logn =
            quota > 1 ? std::log2(static_cast<double>(quota)) : 1.0;
        const double units =
            a.spec.kind == JobKind::kSort
                ? static_cast<double>(quota) * logn
                : static_cast<double>(quota);
        rc.clock.Advance(rc.runtime->options().cost.compute_unit * units);
      }

      std::vector<double> result;  // this rank's share of the answer
      std::int64_t messages = 0;
      double answer = 0.0;
      bool ok = true;
      const std::uint64_t msg0 = rc.stats.messages_sent;
      switch (a.spec.kind) {
        case JobKind::kSort: {
          switch (a.spec.algorithm) {
            case Algorithm::kJQuick: {
              JQuickConfig scfg;
              scfg.seed = a.spec.seed;
              JQuickStats st;
              result = JQuickSortPadded(sub, std::move(input), scfg, &st);
              messages = st.messages_sent;
              break;
            }
            case Algorithm::kSampleSort: {
              SampleSortConfig scfg;
              scfg.seed = a.spec.seed;
              SampleSortStats st;
              result = SampleSort(sub, std::move(input), scfg, &st);
              messages = st.messages_sent;
              break;
            }
            case Algorithm::kMultilevel: {
              MultilevelConfig scfg;
              scfg.seed = a.spec.seed;
              MultilevelStats st;
              result = MultilevelSampleSort(sub, std::move(input), scfg, &st);
              messages = st.messages_sent;
              break;
            }
          }
          if (cfg_.verify) {
            ok = OffClock([&] { return VerifyJob(sub, a.spec, result); });
          }
          break;
        }
        case JobKind::kSelect: {
          query::SelectConfig qcfg;
          qcfg.seed = a.spec.seed;
          const query::SelectResult sel =
              query::DistributedSelect(*sub, input, a.spec.k, qcfg);
          messages =
              static_cast<std::int64_t>(rc.stats.messages_sent - msg0);
          answer = sel.value;
          if (jr == 0) result = {sel.value};
          if (cfg_.verify) {
            ok = OffClock([&] {
              return VerifySelection(*sub, input, a.spec.k, sel.value,
                                     sel.less, sel.less_equal,
                                     query::kQueryVerifyTagBase);
            });
          }
          break;
        }
        case JobKind::kTopK: {
          query::TopKConfig qcfg;
          qcfg.seed = a.spec.seed;
          std::vector<double> topk =
              query::DistributedTopK(*sub, input, a.spec.k, qcfg);
          messages =
              static_cast<std::int64_t>(rc.stats.messages_sent - msg0);
          if (jr == 0) answer = topk.empty() ? 0.0 : topk.back();
          if (cfg_.verify) {
            ok = OffClock([&] {
              return VerifyTopK(*sub, input, a.spec.k, topk, 0,
                                query::kQueryVerifyTagBase);
            });
          }
          result = std::move(topk);
          break;
        }
        case JobKind::kQuantile: {
          const query::QuantileSummary summary =
              query::BuildQuantileSummary(*sub, input);
          messages =
              static_cast<std::int64_t>(rc.stats.messages_sent - msg0);
          answer = summary.Query(a.spec.q);
          if (jr == 0) result = {answer};
          if (cfg_.verify) {
            ok = OffClock([&] {
              return VerifyQuantile(*sub, input, a.spec.q, answer,
                                    summary.RankErrorBound(a.spec.q),
                                    query::kQueryVerifyTagBase);
            });
          }
          break;
        }
      }
      const double t_end = rc.clock.Now();

      if (cfg_.on_job_output) cfg_.on_job_output(a, jr, result);

      mine.job = a.spec.id;
      mine.end_clock = t_end;
      mine.split_vtime = t_split - t0;
      mine.sort_vtime = t_end - t_split;
      mine.elements = static_cast<std::int64_t>(result.size());
      mine.messages = messages;
      mine.answer = answer;
      mine.ok = ok;
    }

    shared_->AwaitWave();

    // Fold the report board -- identical reads and arithmetic on every
    // rank, so every scheduler replica sees identical completions.
    for (const Admission& a : wave) {
      JobResult r;
      r.spec = a.spec;
      r.first = a.first;
      r.last = a.last;
      r.width = a.width;
      r.start_vtime = a.start_vtime;
      r.queue_wait = a.start_vtime - a.spec.arrival_vtime;
      r.ok = true;
      // The group root (sub rank 0) is world rank a.first; its report
      // carries the scalar answer of a query job.
      r.answer = shared_->reports[static_cast<std::size_t>(a.first)].answer;
      double completion = a.start_vtime;
      for (int m = a.first; m <= a.last; ++m) {
        const SharedState::RankReport& rep =
            shared_->reports[static_cast<std::size_t>(m)];
        completion = std::max(completion, rep.end_clock);
        r.split_vtime = std::max(r.split_vtime, rep.split_vtime);
        r.sort_vtime = std::max(r.sort_vtime, rep.sort_vtime);
        r.elements += rep.elements;
        r.messages += rep.messages;
        r.ok = r.ok && rep.ok && rep.job == a.spec.id;
      }
      r.completion_vtime = completion;
      r.latency = completion - a.spec.arrival_vtime;
      stats.jobs[static_cast<std::size_t>(a.spec.id)] = r;
      stats.makespan = std::max(stats.makespan, completion);
      sched.Complete(a.spec.id, completion);
    }

    // Second barrier: nobody may reuse the report board for the next
    // wave before everybody finished folding this one.
    shared_->AwaitWave();
  }
  return stats;
}

double LatencyPercentile(const ServiceStats& stats, double q) {
  std::vector<double> lat;
  lat.reserve(stats.jobs.size());
  for (const JobResult& r : stats.jobs) lat.push_back(r.latency);
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  const double rank =
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(lat.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp<long long>(std::llround(rank) - 1, 0,
                            static_cast<long long>(lat.size()) - 1));
  return lat[idx];
}

ServiceMetrics Summarize(const ServiceStats& stats) {
  ServiceMetrics m;
  m.jobs = static_cast<int>(stats.jobs.size());
  m.makespan = stats.makespan;
  double wait_sum = 0.0;
  for (const JobResult& r : stats.jobs) {
    if (!r.ok) ++m.failed;
    wait_sum += r.queue_wait;
    m.split_vtime_total += r.split_vtime;
    m.busy_vtime_total += r.completion_vtime - r.start_vtime;
    m.elements += r.elements;
  }
  if (m.jobs > 0) m.mean_queue_wait = wait_sum / m.jobs;
  if (stats.makespan > 0.0) {
    m.jobs_per_sec = static_cast<double>(m.jobs) / (stats.makespan * 1e-6);
  }
  if (m.busy_vtime_total > 0.0) {
    m.split_share = m.split_vtime_total / m.busy_vtime_total;
  }
  m.p50_latency = LatencyPercentile(stats, 0.50);
  m.p99_latency = LatencyPercentile(stats, 0.99);
  return m;
}

namespace {

/// Filtered copy sharing the full run's makespan: per-kind jobs_per_sec
/// and latency percentiles of a mixed stream.
ServiceMetrics SummarizeKind(const ServiceStats& stats, bool queries) {
  ServiceStats sub;
  sub.waves = stats.waves;
  sub.makespan = stats.makespan;
  for (const JobResult& r : stats.jobs) {
    if ((r.spec.kind != JobKind::kSort) == queries) sub.jobs.push_back(r);
  }
  return Summarize(sub);
}

}  // namespace

ServiceMetrics SummarizeQueries(const ServiceStats& stats) {
  return SummarizeKind(stats, /*queries=*/true);
}

ServiceMetrics SummarizeSorts(const ServiceStats& stats) {
  return SummarizeKind(stats, /*queries=*/false);
}

}  // namespace jsort::sched
