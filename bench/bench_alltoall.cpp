// All-to-all exchange benchmark: rbc::Alltoallv vs mpisim::Alltoallv on
// uniform personalized exchanges, the jsort::exchange segment paths
// (dense Alltoallv vs coalesced vs sparse) on a skewed neighbour-rotation
// redistribution, and the large-message regime (segment_bytes sweeps) on
// the same skewed workload. The skewed rows also report the *measured*
// per-rank message count (payload plus every metadata message: the dense
// counts round, the sparse barriers) from the substrate's traffic
// counters; the large-message rows add the exchange layer's wire-segment
// count and the measured maximum single-message size, which the
// segmented paths must keep at or below segment_bytes (the manifest
// assertion CI gates on).
#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "rbc/rbc.hpp"
#include "sort/exchange.hpp"

namespace {

/// Uniform personalized exchange: every rank sends `count` elements to
/// every peer, RBC schedule vs the substrate's native implementation.
void UniformSweepAt(benchutil::BenchContext& ctx, int p, int reps) {
  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = p});
  rt.Run([&, p](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    for (int count : {1, 16, 256, 4096}) {
      std::vector<double> send(static_cast<std::size_t>(count) *
                                   static_cast<std::size_t>(p),
                               1.0);
      std::vector<double> recv(send.size(), 0.0);
      std::vector<int> counts(static_cast<std::size_t>(p), count),
          displs(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) {
        displs[static_cast<std::size_t>(i)] = i * count;
      }
      const auto mpi = benchutil::MeasureOnRanks(world, reps, [&] {
        mpisim::Alltoallv(send.data(), counts, displs,
                          mpisim::Datatype::kFloat64, recv.data(), counts,
                          displs, world);
      });
      const auto rbcm = benchutil::MeasureOnRanks(world, reps, [&] {
        rbc::Alltoallv(send.data(), counts, displs, rbc::Datatype::kFloat64,
                       recv.data(), counts, displs, rw);
      });
      if (world.Rank() == 0) {
        ctx.Row("alltoallv_uniform", "mpi", p, count, mpi);
        ctx.Row("alltoallv_uniform", "rbc", p, count, rbcm);
      }
    }
  });
}

void UniformSweep(benchutil::BenchContext& ctx) {
  const int reps = ctx.reps(5);
  for (int p : ctx.smoke() ? std::vector<int>{4, 8}
                           : std::vector<int>{4, 8, 16, 32}) {
    UniformSweepAt(ctx, p, reps);
  }
}

/// Skewed redistribution: every rank's elements all belong to one
/// neighbour (the jquick-style sparse pattern), via all three exchange
/// paths. Alongside the timings, one extra untimed run measures the
/// maximum per-rank message count (payload + metadata) from the
/// substrate's traffic counters.
void SkewSweepAt(benchutil::BenchContext& ctx, int p, int reps) {
  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = p});
  rt.Run([&, p](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const int me = tr->Rank();
    for (int cap : {16, 1024}) {
      const jsort::CapacityLayout layout{
          .p = p, .quota = cap, .cap_first = cap, .cap_last = cap};
      const int owner = (me + 1) % p;
      const std::int64_t begin = layout.PrefixBefore(owner);
      std::vector<double> data(static_cast<std::size_t>(cap), 1.0);
      auto run_once = [&](jsort::exchange::Mode mode) {
        std::vector<double> sink;
        std::vector<jsort::exchange::Segment> segs(1);
        segs[0] = jsort::exchange::Segment{data.data(), cap, begin, &sink,
                                           cap};
        mpisim::WaitUntil(jsort::exchange::StartSegmentExchange(
                              tr, layout, std::move(segs), 19, mode),
                          "segment exchange");
      };
      for (auto mode : {jsort::exchange::Mode::kAlltoallv,
                        jsort::exchange::Mode::kCoalesced,
                        jsort::exchange::Mode::kSparse}) {
        const auto m = benchutil::MeasureOnRanks(world, reps, [&] {
          run_once(mode);
        });
        // Untimed message-count pass: max per-rank sends of one exchange
        // (the counter only sees the caller's own sends, all of which
        // happen inside run_once).
        mpisim::Barrier(world);
        const double before =
            static_cast<double>(mpisim::Ctx().stats.messages_sent);
        run_once(mode);
        const double local =
            static_cast<double>(mpisim::Ctx().stats.messages_sent) - before;
        double max_msgs = 0.0;
        mpisim::Allreduce(&local, &max_msgs, 1, mpisim::Datatype::kFloat64,
                          mpisim::ReduceOp::kMax, world);
        if (world.Rank() == 0) {
          ctx.Row("segment_exchange_skewed", benchutil::ModeName(mode), p,
                  cap, m,
                  {{"messages", static_cast<std::int64_t>(max_msgs)}});
        }
      }
    }
  });
}

void SkewSweep(benchutil::BenchContext& ctx) {
  const int reps = ctx.reps(5);
  for (int p : ctx.smoke() ? std::vector<int>{8}
                           : std::vector<int>{8, 16, 32}) {
    SkewSweepAt(ctx, p, reps);
  }
}

/// Large-message regime on the skewed rotation: one destination receives
/// the whole per-rank payload (`cap` elements), swept over segment sizes
/// for the two chunk-capable paths (sparse, dense) plus the unsegmented
/// baselines. Each row carries the exchange layer's wire-segment count
/// and the measured maximum single-message size across all ranks -- the
/// acceptance check is max_msg_bytes <= segment_bytes on the segmented
/// rows.
void LargeMessageSweepAt(benchutil::BenchContext& ctx, int p, int cap,
                         int reps) {
  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = p});
  rt.Run([&, p, cap](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const int me = tr->Rank();
    const jsort::CapacityLayout layout{
        .p = p, .quota = cap, .cap_first = cap, .cap_last = cap};
    const int owner = (me + 1) % p;
    const std::int64_t begin = layout.PrefixBefore(owner);
    std::vector<double> data(static_cast<std::size_t>(cap), 1.0);
    auto run_once = [&](jsort::exchange::Mode mode, std::int64_t seg,
                        jsort::exchange::ExchangeStats* stats) {
      std::vector<double> sink;
      std::vector<jsort::exchange::Segment> segs(1);
      segs[0] = jsort::exchange::Segment{data.data(), cap, begin, &sink,
                                         cap};
      mpisim::WaitUntil(jsort::exchange::StartSegmentExchange(
                            tr, layout, std::move(segs), 19, mode, stats,
                            seg),
                        "segment exchange");
    };
    for (auto mode : {jsort::exchange::Mode::kAlltoallv,
                      jsort::exchange::Mode::kSparse}) {
      for (std::int64_t seg :
           {std::int64_t{0}, std::int64_t{4096}, std::int64_t{65536}}) {
        const auto m = benchutil::MeasureOnRanks(world, reps, [&] {
          run_once(mode, seg, nullptr);
        });
        // Untimed accounting pass: per-rank message count, wire segments,
        // and the fleet-wide maximum single-message size.
        mpisim::Barrier(world);
        mpisim::Ctx().stats.max_message_bytes = 0;
        const double before =
            static_cast<double>(mpisim::Ctx().stats.messages_sent);
        jsort::exchange::ExchangeStats stats;
        run_once(mode, seg, &stats);
        // Read both counters before the reductions below inject their own
        // wire messages into them.
        const double local_msgs =
            static_cast<double>(mpisim::Ctx().stats.messages_sent) - before;
        const double local_bytes =
            static_cast<double>(mpisim::Ctx().stats.max_message_bytes);
        double max_msgs = 0.0;
        mpisim::Allreduce(&local_msgs, &max_msgs, 1,
                          mpisim::Datatype::kFloat64, mpisim::ReduceOp::kMax,
                          world);
        double max_bytes = 0.0;
        mpisim::Allreduce(&local_bytes, &max_bytes, 1,
                          mpisim::Datatype::kFloat64, mpisim::ReduceOp::kMax,
                          world);
        if (world.Rank() == 0) {
          ctx.Row("segment_exchange_large", benchutil::ModeName(mode), p,
                  cap, m,
                  {{"messages", static_cast<std::int64_t>(max_msgs)},
                   {"segment_bytes", seg},
                   {"segments", stats.segments},
                   {"max_msg_bytes",
                    static_cast<std::int64_t>(max_bytes)}});
        }
      }
    }
  });
}

void LargeMessageSweep(benchutil::BenchContext& ctx) {
  const int reps = ctx.reps(5);
  if (ctx.smoke()) {
    LargeMessageSweepAt(ctx, 8, 1 << 12, reps);
  } else {
    for (int p : {8, 16}) LargeMessageSweepAt(ctx, p, 1 << 13, reps);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchSpec spec;
  spec.binary = "bench_alltoall";
  spec.figure = "exchange layer (Sections IV/VII infrastructure)";
  spec.description =
      "uniform and skewed all-to-all exchanges across the dense, coalesced "
      "and sparse delivery paths, plus the segmented large-message regime";
  spec.default_p = 32;
  spec.default_reps = 5;
  spec.sections = {
      {"uniform", "rbc vs native Alltoallv on uniform exchanges",
       UniformSweep},
      {"skewed", "delivery-path comparison on the neighbour rotation",
       SkewSweep},
      {"large", "segment_bytes sweep in the large-message regime",
       LargeMessageSweep}};
  return benchutil::BenchMain(argc, argv, spec);
}
