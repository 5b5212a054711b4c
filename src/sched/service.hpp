// The SPMD front end of the elastic sort service.
//
// Construct a SortService once (outside Runtime::Run) and have *every*
// rank of the world call Run(world); the call is collective and returns
// identical ServiceStats on every rank. Internally each rank replicates
// the pure Scheduler state machine; the only cross-rank coordination is
// an out-of-band wave barrier plus a shared per-rank report board, both
// in plain process memory -- deliberately outside the message-passing
// substrate so that service bookkeeping costs *zero* virtual time and
// the measured latencies contain exactly what the model charges the
// jobs: the communicator split (the axis under test), the sort's
// communication, and an explicit local-work compute term per member
// (sorts pay compute_unit * n * log2(n), queries compute_unit * n), so
// even communication-free (width-1) jobs have positive duration.
//
// Execution model per wave: every member rank of an admitted job lifts
// its clock to the admission vtime, splits the job's range off the world
// transport (RBC: O(1) local; native MPI: blocking O(group) agreement;
// ICOMM: Section-VI local range creation), generates its slice of the
// input, runs the job's sorter, and posts its measurements to the report
// board. After the barrier every rank folds the identical board into
// identical JobResults and feeds the completions back to its scheduler
// replica.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sched/scheduler.hpp"
#include "sort/transport.hpp"

namespace jsort::sched {

struct ServiceConfig {
  /// Split/communication backend every job group is materialized with.
  Backend backend = Backend::kRbc;
  SchedulerConfig scheduler{};
  /// Verify each job's result on its own group: sorts check global
  /// sortedness + element conservation; queries re-establish the answer
  /// from the original input (checks.hpp query checkers). Runs off the
  /// virtual clock, so enabling it does not perturb reported timings.
  bool verify = false;
  /// Rank-local observation hook: called by every member rank with its
  /// slice of the job's sorted output (tests use this for byte-exact
  /// comparison against the standalone sorters).
  std::function<void(const Admission&, int member_rank,
                     std::span<const double> local_output)>
      on_job_output;
};

/// Everything the service measured, identical on every rank.
struct ServiceStats {
  std::vector<JobResult> jobs;  // indexed by JobSpec::id
  int waves = 0;                // admission batches executed
  double makespan = 0.0;        // max completion vtime over all jobs
};

/// Aggregate service-level metrics derived from ServiceStats. Virtual
/// time is in model microseconds, so jobs_per_sec = jobs/(makespan*1e-6).
struct ServiceMetrics {
  int jobs = 0;
  int failed = 0;               // jobs with ok == false
  double makespan = 0.0;
  double jobs_per_sec = 0.0;
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double mean_queue_wait = 0.0;
  double split_vtime_total = 0.0;
  double busy_vtime_total = 0.0;  // sum over jobs of completion - start
  double split_share = 0.0;       // split_vtime_total / busy_vtime_total
  std::int64_t elements = 0;
};

ServiceMetrics Summarize(const ServiceStats& stats);

/// Summarize restricted to the query jobs (kind != kSort) / the sorts of
/// a mixed stream. The makespan (and thus jobs_per_sec's denominator) is
/// the full run's: "queries per second" means "of the mixed service run",
/// not of a hypothetical query-only service.
ServiceMetrics SummarizeQueries(const ServiceStats& stats);
ServiceMetrics SummarizeSorts(const ServiceStats& stats);

/// Nearest-rank percentile (q in [0, 1]) of the end-to-end latencies.
double LatencyPercentile(const ServiceStats& stats, double q);

class SortService {
 public:
  /// `ranks` must equal the world size every rank later passes to Run.
  SortService(int ranks, std::vector<JobSpec> jobs, ServiceConfig cfg = {});
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Collective over all `ranks` ranks; each rank calls it exactly once
  /// per service run. Deterministic in (jobs, config, backend).
  ServiceStats Run(mpisim::Comm& world);

 private:
  struct SharedState;

  int ranks_;
  std::vector<JobSpec> jobs_;
  ServiceConfig cfg_;
  std::unique_ptr<SharedState> shared_;
};

}  // namespace jsort::sched
