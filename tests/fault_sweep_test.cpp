// Fault-injection sweep over every public entry point: one rank throws at
// its k-th communicating Transport call (or, for the service, from its
// k-th job-output hook), and every other rank must unwind promptly --
// either finishing normally or with an AbortedError naming the failed
// rank -- while Runtime::Run re-throws the injected error. A wait that
// ignores the abort flag, or aborts without naming the origin, fails here
// instead of hanging a production run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "forwarding_transport.hpp"
#include "query/quantile.hpp"
#include "query/select.hpp"
#include "query/topk.hpp"
#include "sched/service.hpp"
#include "sort/hypercube_qs.hpp"
#include "sort/jquick.hpp"
#include "sort/multilevel_sort.hpp"
#include "sort/sample_sort.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::Backend;
using jsort::BackendName;
using jsort::Datatype;
using jsort::Poll;
using jsort::ReduceOp;
using jsort::Transport;

constexpr std::chrono::milliseconds kTimeout{4000};
constexpr const char* kInjected = "injected failure";

/// Per-rank fault plan shared by a transport and all of its Split
/// children, so the call count spans subgroups.
struct Fault {
  std::int64_t fail_at = -1;  // 0-based call index to throw at; -1: never
  std::int64_t calls = 0;     // communicating calls made so far

  void Tick() {
    if (calls++ == fail_at) throw mpisim::Error(kInjected);
  }
};

/// Forwards every call to `inner`; the communicating ones tick the fault
/// counter first.
class FaultyTransport final : public testutil::ForwardingTransport {
 public:
  FaultyTransport(std::shared_ptr<Transport> inner,
                  std::shared_ptr<Fault> fault)
      : ForwardingTransport(std::move(inner)), fault_(std::move(fault)) {}

  Poll Ibcast(void* buf, int count, Datatype dt, int root,
              int tag) override {
    fault_->Tick();
    return ForwardingTransport::Ibcast(buf, count, dt, root, tag);
  }
  Poll Iscan(const void* send, void* recv, int count, Datatype dt,
             ReduceOp op, int tag) override {
    fault_->Tick();
    return ForwardingTransport::Iscan(send, recv, count, dt, op, tag);
  }
  Poll IscanWithTotal(const void* send, void* incl, void* total, int count,
                      Datatype dt, ReduceOp op, int tag,
                      const jsort::ScanRider& rider = {}) override {
    fault_->Tick();
    return ForwardingTransport::IscanWithTotal(send, incl, total, count, dt,
                                               op, tag, rider);
  }
  Poll Ireduce(const void* send, void* recv, int count, Datatype dt,
               ReduceOp op, int root, int tag) override {
    fault_->Tick();
    return ForwardingTransport::Ireduce(send, recv, count, dt, op, root,
                                        tag);
  }
  Poll Igather(const void* send, int count, Datatype dt, void* recv,
               int root, int tag) override {
    fault_->Tick();
    return ForwardingTransport::Igather(send, count, dt, recv, root, tag);
  }
  Poll Ialltoallv(const void* send, std::span<const int> sendcounts,
                  std::span<const int> sdispls, Datatype dt, void* recv,
                  std::span<const int> recvcounts,
                  std::span<const int> rdispls, int tag,
                  std::int64_t segment_bytes) override {
    fault_->Tick();
    return ForwardingTransport::Ialltoallv(send, sendcounts, sdispls, dt,
                                           recv, recvcounts, rdispls, tag,
                                           segment_bytes);
  }
  Poll IsparseAlltoallv(std::span<const jsort::SparseBlock> sends,
                        Datatype dt,
                        std::vector<jsort::SparseDelivery>* received,
                        int tag, std::int64_t segment_bytes) override {
    fault_->Tick();
    return ForwardingTransport::IsparseAlltoallv(sends, dt, received, tag,
                                                 segment_bytes);
  }
  void Send(const void* buf, int count, Datatype dt, int dest,
            int tag) override {
    fault_->Tick();
    ForwardingTransport::Send(buf, count, dt, dest, tag);
  }

 protected:
  std::shared_ptr<Transport> Wrap(std::shared_ptr<Transport> child) override {
    return std::make_shared<FaultyTransport>(std::move(child), fault_);
  }

 private:
  std::shared_ptr<Fault> fault_;
};

/// How one rank left the run.
struct Outcome {
  enum Kind { kNone, kReturned, kAborted, kInjected, kOther } kind = kNone;
  int origin = -1;  // AbortedError::origin_rank()
  std::string what;
};

/// Runs `body` on every rank of a fresh p-rank runtime, where only world
/// rank `failed` may inject a fault, and checks the unwinding contract.
/// Returns whether the fault fired.
bool RunCase(int p, const std::function<void(mpisim::Comm&)>& body,
             int failed, const std::string& label) {
  mpisim::Runtime::Options opts;
  opts.num_ranks = p;
  opts.deadlock_timeout = kTimeout;
  mpisim::Runtime rt(opts);
  testutil::PerRank<Outcome> outcomes(p);
  std::string run_error;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    rt.Run([&](mpisim::Comm& world) {
      const int me = world.Rank();
      try {
        body(world);
        outcomes.Set(me, {Outcome::kReturned, -1, ""});
      } catch (const mpisim::AbortedError& e) {
        outcomes.Set(me, {Outcome::kAborted, e.origin_rank(), e.what()});
        throw;
      } catch (const std::exception& e) {
        const bool injected =
            me == failed &&
            std::string(e.what()).find(kInjected) != std::string::npos;
        outcomes.Set(me, {injected ? Outcome::kInjected : Outcome::kOther,
                          -1, e.what()});
        throw;
      }
    });
  } catch (const std::exception& e) {
    run_error = e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, kTimeout) << label;

  const bool fired = outcomes[failed].kind == Outcome::kInjected;
  if (fired) {
    EXPECT_NE(run_error.find(kInjected), std::string::npos)
        << label << ": Run re-threw: " << run_error;
  } else {
    EXPECT_EQ(run_error, "") << label;
  }
  for (int r = 0; r < p; ++r) {
    const Outcome& o = outcomes[r];
    if (r == failed && fired) continue;
    const bool ok = o.kind == Outcome::kReturned ||
                    (fired && o.kind == Outcome::kAborted &&
                     o.origin == failed);
    EXPECT_TRUE(ok) << label << ": rank " << r << " left with kind "
                    << o.kind << ", origin " << o.origin << ": " << o.what;
  }
  return fired;
}

// ------------------------------------------------------ sorters + queries

constexpr int kP = 8;
constexpr std::int64_t kPerRank = 64;

using EntryPoint = std::function<void(const std::shared_ptr<Transport>&,
                                      std::vector<double>)>;

struct Entry {
  const char* name;
  EntryPoint run;
  /// Elements per rank of the generated input.
  std::int64_t per_rank = kPerRank;
  /// Communicating calls of the failing rank's clean run, at least: an
  /// entry there for a later call proves that the sweep walked past it.
  std::int64_t min_calls = 0;
};

const std::vector<Entry>& Entries() {
  static const std::vector<Entry> entries = {
      {"JQuickSort",
       [](const auto& tr, auto in) { jsort::JQuickSort(tr, std::move(in)); }},
      {"JQuickSortPadded",
       [](const auto& tr, auto in) {
         jsort::JQuickSortPadded(tr, std::move(in));
       }},
      // At n/p = 1,024 the 8 ranks split once (JQuick finishes tasks of up
      // to 6 ranks directly there): the root's candidate sweep and the
      // level's sweep, the exchange's one or two sends, then the halves'
      // direct finishes, one send per round of their all-gathers -- 2 for
      // the 4-rank half, 3 for the 5-rank one. That is 6 calls on ranks 0
      // and 7, whose last is their last round's send, and 10 on rank 3,
      // the janus. At n/p = 64 the two entries above finish directly and
      // sweep the direct finish's sends and receives alone.
      {"JQuickSortSplits",
       [](const auto& tr, auto in) { jsort::JQuickSort(tr, std::move(in)); },
       1024, 6},
      {"SampleSort",
       [](const auto& tr, auto in) { jsort::SampleSort(tr, std::move(in)); }},
      {"MultilevelSampleSort",
       [](const auto& tr, auto in) {
         jsort::MultilevelSampleSort(tr, std::move(in));
       }},
      {"HypercubeQuicksort",
       [](const auto& tr, auto in) {
         jsort::HypercubeQuicksort(tr, std::move(in));
       }},
      {"DistributedSelect",
       [](const auto& tr, auto in) {
         jsort::query::DistributedSelect(*tr, in, kP * kPerRank / 2);
       }},
      {"DistributedTopK",
       [](const auto& tr, auto in) {
         jsort::query::DistributedTopK(*tr, in, 50);
       }},
      {"BuildQuantileSummary",
       [](const auto& tr, auto in) {
         jsort::query::BuildQuantileSummary(*tr, in);
       }},
      // At n/p = 2^14 SelectSplitters takes its second round: Igather,
      // Ibcast, Igather, Ibcast, then the exchange's two Ialltoallv.
      {"SampleSortTwoRounds",
       [](const auto& tr, auto in) { jsort::SampleSort(tr, std::move(in)); },
       std::int64_t{1} << 14, 6},
  };
  return entries;
}

class FaultSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, Backend>> {};

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, FaultSweep,
    ::testing::Combine(::testing::Range(std::size_t{0}, Entries().size()),
                       ::testing::Values(Backend::kRbc, Backend::kMpi,
                                         Backend::kIcomm)),
    [](const auto& info) {
      return std::string(Entries()[std::get<0>(info.param)].name) + "_" +
             BackendName(std::get<1>(info.param));
    });

TEST_P(FaultSweep, EveryRankUnwindsNamingTheFailedRank) {
  const Entry& entry = Entries()[std::get<0>(GetParam())];
  const Backend backend = std::get<1>(GetParam());
  int fired = 0;
  for (const int failed : {0, 3, 7}) {
    // k walks the failing rank's calls; the first k past its last call is
    // a clean run, and ends the sweep for this rank.
    for (std::int64_t k = 0; k < 10'000; ++k) {
      std::vector<std::shared_ptr<Fault>> faults(kP);
      for (auto& f : faults) f = std::make_shared<Fault>();
      faults[static_cast<std::size_t>(failed)]->fail_at = k;
      const std::string label = std::string(entry.name) + "/" +
                                BackendName(backend) + " r=" +
                                std::to_string(failed) +
                                " k=" + std::to_string(k);
      const bool hit = RunCase(
          kP,
          [&](mpisim::Comm& world) {
            auto tr = std::make_shared<FaultyTransport>(
                jsort::MakeTransport(backend, world),
                faults[static_cast<std::size_t>(world.Rank())]);
            entry.run(tr, jsort::GenerateInput(jsort::InputKind::kUniform,
                                               world.Rank(), kP,
                                               entry.per_rank, 7));
          },
          failed, label);
      if (!hit) {
        EXPECT_LE(faults[static_cast<std::size_t>(failed)]->calls, k)
            << label;
        EXPECT_GE(faults[static_cast<std::size_t>(failed)]->calls,
                  entry.min_calls)
            << label;
        break;
      }
      ++fired;
      if (HasFailure()) return;  // one broken case is enough to report
    }
  }
  EXPECT_GT(fired, 0);
}

// -------------------------------------------------------- service wave

class FaultSweepService
    : public ::testing::TestWithParam<std::tuple<Backend, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, FaultSweepService,
    ::testing::Combine(::testing::Values(Backend::kRbc, Backend::kMpi,
                                         Backend::kIcomm),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(BackendName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_verify" : "_noverify");
    });

TEST_P(FaultSweepService, EveryRankUnwindsNamingTheFailedRank) {
  constexpr int kRanks = 16;
  const auto [backend, verify] = GetParam();
  jsort::sched::JobStreamParams params;
  params.jobs = 40;
  params.query_fraction = 0.3;
  params.min_n = 64;
  params.max_n = 1024;
  const auto jobs = jsort::sched::MakeJobStream(kRanks, params, 11);
  for (const int failed : {0, 5, 15}) {
    // k walks the failing rank's jobs, as FaultSweep walks calls: the
    // first k past its last job is a clean run and ends the walk, so the
    // case does not depend on how many jobs the scheduler placed on it.
    // At most 4 faults per rank.
    for (int k = 0; k <= 3; ++k) {
      std::vector<int> outputs(kRanks, 0);  // hook calls per world rank
      jsort::sched::ServiceConfig cfg;
      cfg.backend = backend;
      cfg.verify = verify;
      cfg.on_job_output = [&](const jsort::sched::Admission&, int,
                              std::span<const double>) {
        const int me = mpisim::Ctx().world_rank;
        if (me == failed && outputs[static_cast<std::size_t>(me)] == k) {
          throw mpisim::Error(kInjected);
        }
        ++outputs[static_cast<std::size_t>(me)];
      };
      jsort::sched::SortService service(kRanks, jobs, cfg);
      const std::string label = std::string(BackendName(backend)) +
                                (verify ? " verify" : "") +
                                " r=" + std::to_string(failed) +
                                " k=" + std::to_string(k);
      const bool hit = RunCase(
          kRanks, [&](mpisim::Comm& world) { service.Run(world); }, failed,
          label);
      if (!hit) {
        // RunCase has checked that Run threw nothing.
        EXPECT_EQ(outputs[static_cast<std::size_t>(failed)], k) << label;
        EXPECT_GT(k, 0) << label << ": rank " << failed << " ran no job";
        break;
      }
      if (HasFailure()) return;
    }
  }
}

}  // namespace
