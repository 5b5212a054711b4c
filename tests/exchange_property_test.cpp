// Property-test harness for every exchange path: randomized counts,
// displacements and skew sweeps asserting byte-exact equivalence of the
// dense, coalesced, sparse and segmented (large-message) delivery paths
// across all three Transport backends and segment sizes {one element,
// prime, larger than any payload}. Also pins down the large-message
// contract itself: single wire messages stay bounded by segment_bytes,
// ExchangeStats.segments reconciles with the substrate's measured message
// counters, and Mode::kAuto flips coalesced -> sparse exactly at the
// threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <tuple>
#include <vector>

#include "sort/exchange.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

using jsort::CapacityLayout;
using jsort::Transport;
using jsort::exchange::ExchangeStats;
using jsort::exchange::Mode;
using jsort::exchange::Outgoing;
using jsort::exchange::Segment;
using testutil::RunRanks;

enum class Backend { kRbc, kMpi, kIcomm };

std::shared_ptr<Transport> Make(Backend b, mpisim::Comm& world) {
  switch (b) {
    case Backend::kRbc: {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      return jsort::MakeRbcTransport(rw);
    }
    case Backend::kMpi:
      return jsort::MakeMpiTransport(world);
    case Backend::kIcomm:
      return jsort::MakeIcommTransport(world);
  }
  return nullptr;
}

/// A wedged exchange fails with the wait-graph report at the deadlock
/// timeout instead of spinning until the test timeout.
void WaitPoll(const jsort::Poll& p) { mpisim::WaitUntil(p, "test exchange"); }

/// The swept segment sizes (bytes): one double, a prime that lands
/// mid-element and mid-chunk, and one far above every payload in these
/// tests (segmentation enabled but never splitting).
constexpr std::int64_t kSegOneElem = 8;
constexpr std::int64_t kSegPrime = 61;
constexpr std::int64_t kSegHuge = std::int64_t{1} << 20;

class ExchangePropertySweep
    : public ::testing::TestWithParam<std::tuple<Backend, std::int64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsBySegment, ExchangePropertySweep,
    ::testing::Combine(::testing::Values(Backend::kRbc, Backend::kMpi,
                                         Backend::kIcomm),
                       ::testing::Values(std::int64_t{0}, kSegOneElem,
                                         kSegPrime, kSegHuge)));

/// Randomized slot-interval redistribution (the jquick shape): a
/// seed-keyed rng, run identically on every rank, draws a (possibly
/// skewed) layout, random region cuts and random per-rank runs; every
/// mode must deliver exactly the slots of this rank's capacity interval,
/// region by region, whatever the segment size.
void RandomizedSegmentExchange(const std::shared_ptr<Transport>& tr,
                               std::uint64_t seed, std::int64_t seg_bytes,
                               bool skewed) {
  const int p = tr->Size();
  const int me = tr->Rank();
  std::mt19937_64 shared(seed);
  const std::int64_t quota = 16 + static_cast<std::int64_t>(shared() % 25);
  CapacityLayout layout{.p = p, .quota = quota, .cap_first = quota,
                        .cap_last = quota};
  if (skewed && p > 1) {
    layout.cap_first = 1 + static_cast<std::int64_t>(shared() % quota);
    layout.cap_last = 1 + static_cast<std::int64_t>(shared() % quota);
  }
  const std::int64_t total = layout.Total();

  constexpr int kRegions = 3;
  std::vector<std::int64_t> region_cuts{0};
  for (int i = 1; i < kRegions; ++i) {
    region_cuts.push_back(static_cast<std::int64_t>(shared() % (total + 1)));
  }
  region_cuts.push_back(total);
  std::sort(region_cuts.begin(), region_cuts.end());
  std::vector<std::int64_t> run_cuts{0};
  for (int i = 1; i < p; ++i) {
    run_cuts.push_back(static_cast<std::int64_t>(shared() % (total + 1)));
  }
  run_cuts.push_back(total);
  std::sort(run_cuts.begin(), run_cuts.end());
  const std::int64_t run_begin = run_cuts[static_cast<std::size_t>(me)];
  const std::int64_t run_end = run_cuts[static_cast<std::size_t>(me) + 1];

  std::vector<double> data(static_cast<std::size_t>(run_end - run_begin));
  for (std::int64_t i = 0; i < run_end - run_begin; ++i) {
    data[static_cast<std::size_t>(i)] = static_cast<double>(run_begin + i);
  }
  // One tag per mode run: the probe-draining paths are not safe across
  // back-to-back segment exchanges on one tag.
  auto run_once = [&](Mode mode, int tag, ExchangeStats* stats) {
    std::vector<std::vector<double>> sinks(kRegions);
    std::vector<Segment> segs;
    for (int rg = 0; rg < kRegions; ++rg) {
      const std::int64_t a =
          std::max(run_begin, region_cuts[static_cast<std::size_t>(rg)]);
      const std::int64_t b =
          std::min(run_end, region_cuts[static_cast<std::size_t>(rg) + 1]);
      const std::int64_t count = std::max<std::int64_t>(0, b - a);
      segs.push_back(Segment{
          count > 0 ? data.data() + (a - run_begin) : nullptr, count,
          count > 0 ? a : 0, &sinks[static_cast<std::size_t>(rg)],
          jsort::OverlapWithRegion(
              layout, me, region_cuts[static_cast<std::size_t>(rg)],
              region_cuts[static_cast<std::size_t>(rg) + 1])});
    }
    jsort::Poll poll = jsort::exchange::StartSegmentExchange(
        tr, layout, std::move(segs), tag, mode, stats, seg_bytes);
    WaitPoll(poll);
    // Delivery order across sources is unspecified for the drain paths;
    // compare as sorted multisets -- the slot values are all distinct, so
    // sorted equality is byte-exact equality of the delivered sets.
    for (auto& s : sinks) std::sort(s.begin(), s.end());
    return sinks;
  };

  ExchangeStats dense_stats;
  const auto dense = run_once(Mode::kAlltoallv, 31, &dense_stats);
  const auto coalesced = run_once(Mode::kCoalesced, 32, nullptr);
  const auto sparse = run_once(Mode::kSparse, 33, nullptr);
  const auto aut = run_once(Mode::kAuto, 34, nullptr);
  EXPECT_EQ(dense, coalesced);
  EXPECT_EQ(dense, sparse);
  EXPECT_EQ(dense, aut);
  const std::int64_t my_begin = layout.PrefixBefore(me);
  const std::int64_t my_end = my_begin + layout.CapOf(me);
  for (int rg = 0; rg < kRegions; ++rg) {
    std::vector<double> expect;
    for (std::int64_t s = std::max(
             my_begin, region_cuts[static_cast<std::size_t>(rg)]);
         s < std::min(my_end,
                      region_cuts[static_cast<std::size_t>(rg) + 1]);
         ++s) {
      expect.push_back(static_cast<double>(s));
    }
    EXPECT_EQ(dense[static_cast<std::size_t>(rg)], expect)
        << "region " << rg << " seg_bytes " << seg_bytes;
  }
  // Segmentation only ever adds wire messages; unsegmented they coincide.
  EXPECT_GE(dense_stats.segments, dense_stats.messages_sent);
  if (seg_bytes == 0 || seg_bytes >= kSegHuge) {
    EXPECT_EQ(dense_stats.segments, dense_stats.messages_sent);
  }
}

TEST_P(ExchangePropertySweep, SegmentExchangeModesByteExactUniform) {
  const auto [b, seg] = GetParam();
  for (std::uint64_t seed : {101ull, 102ull, 103ull}) {
    RunRanks(8, [&, b, seg](mpisim::Comm& world) {
      RandomizedSegmentExchange(Make(b, world), seed, seg, /*skewed=*/false);
    });
  }
}

TEST_P(ExchangePropertySweep, SegmentExchangeModesByteExactSkewed) {
  const auto [b, seg] = GetParam();
  for (std::uint64_t seed : {201ull, 202ull, 203ull}) {
    RunRanks(7, [&, b, seg](mpisim::Comm& world) {
      RandomizedSegmentExchange(Make(b, world), seed, seg, /*skewed=*/true);
    });
  }
}

/// Randomized group-wise exchange (unknown receive counts): every rank
/// derives the full cross-rank entry matrix from the shared seed, so each
/// can compute its exact expected delivery (source order, entry order
/// within a source) and compare byte for byte.
void RandomizedGroupwise(const std::shared_ptr<Transport>& tr,
                         std::uint64_t seed, std::int64_t seg_bytes) {
  const int p = tr->Size();
  const int me = tr->Rank();
  constexpr int kEntries = 4;
  std::mt19937_64 shared(seed);
  // entry[r][e] = (dest, count); value payload derived from (r, e).
  std::vector<std::vector<std::pair<int, std::int64_t>>> entries(
      static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    for (int e = 0; e < kEntries; ++e) {
      const int dest = static_cast<int>(shared() % p);
      const std::int64_t count =
          static_cast<std::int64_t>(shared() % 24);  // empties included
      entries[static_cast<std::size_t>(r)].emplace_back(dest, count);
    }
  }
  auto value = [](int r, int e, std::int64_t i) {
    return r * 10000.0 + e * 1000.0 + static_cast<double>(i);
  };
  std::vector<std::vector<double>> payloads;
  std::vector<Outgoing> out;
  for (int e = 0; e < kEntries; ++e) {
    const auto [dest, count] = entries[static_cast<std::size_t>(me)]
                                      [static_cast<std::size_t>(e)];
    std::vector<double> payload;
    for (std::int64_t i = 0; i < count; ++i) {
      payload.push_back(value(me, e, i));
    }
    payloads.push_back(std::move(payload));
    out.push_back(Outgoing{dest, payloads.back().data(), count});
  }
  ExchangeStats ds, ss;
  const auto dense = jsort::exchange::ExchangeGroupwise(
      tr, out, 41, Mode::kAlltoallv, &ds, seg_bytes);
  const auto sparse = jsort::exchange::ExchangeGroupwise(
      tr, out, 41, Mode::kSparse, &ss, seg_bytes);
  const auto aut = jsort::exchange::ExchangeGroupwise(
      tr, out, 41, Mode::kAuto, nullptr, seg_bytes);
  EXPECT_EQ(dense, sparse);
  EXPECT_EQ(dense, aut);
  EXPECT_EQ(ds.elements_sent, ss.elements_sent);
  // Expected delivery: sources in rank order, entries in order.
  std::vector<double> expect;
  for (int r = 0; r < p; ++r) {
    for (int e = 0; e < kEntries; ++e) {
      const auto [dest, count] = entries[static_cast<std::size_t>(r)]
                                        [static_cast<std::size_t>(e)];
      if (dest != me) continue;
      for (std::int64_t i = 0; i < count; ++i) {
        expect.push_back(value(r, e, i));
      }
    }
  }
  EXPECT_EQ(dense, expect) << "seg_bytes " << seg_bytes;
}

TEST_P(ExchangePropertySweep, GroupwiseModesByteExact) {
  const auto [b, seg] = GetParam();
  for (std::uint64_t seed : {301ull, 302ull, 303ull}) {
    RunRanks(6, [&, b, seg](mpisim::Comm& world) {
      RandomizedGroupwise(Make(b, world), seed, seg);
    });
  }
}

/// Randomized bucket exchange: per-source-deterministic payloads allow a
/// direct (unsorted) byte-exact comparison, and the dense path's
/// ExchangeStats.segments must reconcile with the substrate's measured
/// per-rank message count: p-1 counts messages plus the predicted payload
/// segments.
void RandomizedBuckets(const std::shared_ptr<Transport>& tr,
                       std::uint64_t seed, std::int64_t seg_bytes) {
  const int p = tr->Size();
  const int me = tr->Rank();
  std::mt19937_64 shared(seed);
  // sizes[r][d]: elements rank r sends to d (derived on every rank).
  std::vector<std::vector<std::int64_t>> sizes(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    for (int d = 0; d < p; ++d) {
      sizes[static_cast<std::size_t>(r)].push_back(
          static_cast<std::int64_t>(shared() % 40));
    }
  }
  auto value = [](int r, int d, std::int64_t i) {
    return r * 10000.0 + d * 100.0 + static_cast<double>(i);
  };
  std::vector<std::vector<double>> buckets(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    for (std::int64_t i = 0;
         i < sizes[static_cast<std::size_t>(me)][static_cast<std::size_t>(d)];
         ++i) {
      buckets[static_cast<std::size_t>(d)].push_back(value(me, d, i));
    }
  }
  ExchangeStats stats;
  mpisim::Ctx().stats.max_message_bytes = 0;
  const std::uint64_t before = mpisim::Ctx().stats.messages_sent;
  const std::vector<double> got =
      jsort::exchange::ExchangeBuckets(*tr, buckets, 43, &stats, seg_bytes);
  const std::uint64_t sent = mpisim::Ctx().stats.messages_sent - before;
  std::vector<double> expect;
  for (int r = 0; r < p; ++r) {
    for (std::int64_t i = 0;
         i < sizes[static_cast<std::size_t>(r)][static_cast<std::size_t>(me)];
         ++i) {
      expect.push_back(value(r, me, i));
    }
  }
  EXPECT_EQ(got, expect) << "seg_bytes " << seg_bytes;
  // Measured wire traffic: one 8-byte counts message per peer plus the
  // segmented payload blocks, exactly as accounted.
  EXPECT_EQ(sent, static_cast<std::uint64_t>(p - 1 + stats.segments));
  std::int64_t predicted = 0;
  for (int d = 0; d < p; ++d) {
    if (d == me) continue;
    predicted += mpisim::AlltoallvSegmentsOf(
        sizes[static_cast<std::size_t>(me)][static_cast<std::size_t>(d)],
        sizeof(double), seg_bytes);
  }
  EXPECT_EQ(stats.segments, predicted);
  // No payload message exceeds the limit (counts messages are 8 bytes,
  // within every swept limit).
  if (seg_bytes > 0) {
    EXPECT_LE(mpisim::Ctx().stats.max_message_bytes,
              static_cast<std::uint64_t>(
                  std::max<std::int64_t>(seg_bytes, 8)));
  }
}

TEST_P(ExchangePropertySweep, BucketExchangeByteExactAndAccounted) {
  const auto [b, seg] = GetParam();
  for (std::uint64_t seed : {401ull, 402ull}) {
    RunRanks(6, [&, b, seg](mpisim::Comm& world) {
      RandomizedBuckets(Make(b, world), seed, seg);
    });
  }
}

/// Direct sparse-collective chunking: randomized destination sets and
/// payload sizes; the chunked run must deliver exactly what the
/// unsegmented run delivers, source for source and byte for byte, on
/// every backend.
void RandomizedSparseTransport(const std::shared_ptr<Transport>& tr,
                               std::uint64_t seed, std::int64_t seg_bytes) {
  const int p = tr->Size();
  const int me = tr->Rank();
  std::mt19937_64 shared(seed + static_cast<std::uint64_t>(me) * 7919);
  std::vector<std::vector<double>> payloads;
  std::vector<jsort::SparseBlock> blocks;
  const int nblocks = static_cast<int>(shared() % 4);  // some ranks silent
  for (int i = 0; i < nblocks; ++i) {
    const int dest = static_cast<int>(shared() % p);
    const std::int64_t count = static_cast<std::int64_t>(shared() % 50);
    std::vector<double> payload;
    for (std::int64_t j = 0; j < count; ++j) {
      payload.push_back(me * 1000.0 + i * 100.0 + static_cast<double>(j));
    }
    payloads.push_back(std::move(payload));
    blocks.push_back(jsort::SparseBlock{dest, payloads.back().data(),
                                        static_cast<int>(count)});
  }
  auto run = [&](std::int64_t seg) {
    std::vector<jsort::SparseDelivery> deliveries;
    WaitPoll(tr->IsparseAlltoallv(blocks, jsort::Datatype::kFloat64,
                                  &deliveries, 45, seg));
    return deliveries;
  };
  const auto reference = run(0);
  const auto chunked = run(seg_bytes);
  ASSERT_EQ(chunked.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(chunked[i].source, reference[i].source);
    EXPECT_EQ(chunked[i].bytes, reference[i].bytes) << "delivery " << i;
  }
}

TEST_P(ExchangePropertySweep, SparseTransportChunkingByteExact) {
  const auto [b, seg] = GetParam();
  if (seg == 0) return;  // the reference run itself
  for (std::uint64_t seed : {501ull, 502ull, 503ull}) {
    RunRanks(7, [&, b, seg](mpisim::Comm& world) {
      RandomizedSparseTransport(Make(b, world), seed, seg);
    });
  }
}

/// One uniform layout shared by the threshold tests.
CapacityLayout UniformLayout(int p, std::int64_t cap) {
  return CapacityLayout{.p = p, .quota = cap, .cap_first = cap,
                        .cap_last = cap};
}

/// Rotation redistribution (each rank's run is its neighbour's interval)
/// through StartSegmentExchange; returns the stats.
ExchangeStats RotationOnce(const std::shared_ptr<Transport>& tr,
                           const CapacityLayout& layout, Mode mode, int tag,
                           std::int64_t seg_bytes) {
  const int p = tr->Size();
  const int me = tr->Rank();
  const std::int64_t cap = layout.quota;
  const int owner = (me + 1) % p;
  const std::int64_t begin = layout.PrefixBefore(owner);
  std::vector<double> data(static_cast<std::size_t>(cap));
  for (std::int64_t i = 0; i < cap; ++i) {
    data[static_cast<std::size_t>(i)] = static_cast<double>(begin + i);
  }
  std::vector<double> sink;
  std::vector<Segment> segs(1);
  segs[0] = Segment{data.data(), cap, begin, &sink, cap};
  ExchangeStats stats;
  WaitPoll(jsort::exchange::StartSegmentExchange(
      tr, layout, std::move(segs), tag, mode, &stats, seg_bytes));
  std::vector<double> expect(static_cast<std::size_t>(cap));
  const std::int64_t my_begin = layout.PrefixBefore(me);
  for (std::int64_t i = 0; i < cap; ++i) {
    expect[static_cast<std::size_t>(i)] = static_cast<double>(my_begin + i);
  }
  EXPECT_EQ(sink, expect);
  return stats;
}

/// Mode::kAuto must flip coalesced -> sparse exactly at the threshold:
/// the largest possible per-destination message of this rotation is the
/// 1-segment header (8 bytes) plus the destination capacity (cap * 8
/// bytes). At segment_bytes == that bound kAuto stays coalesced (one
/// whole message per destination, exactly one wire message); one byte
/// below it must chunk via the sparse collective.
TEST(ExchangeAutoThreshold, FlipsExactlyAtSegmentBytes) {
  // Coalesced vs sparse is kAuto's only decision for a segment exchange on
  // a flat cost model, at every group size.
  constexpr int kP = 12;
  constexpr std::int64_t kCap = 16;
  constexpr std::int64_t kBound = 8 + kCap * 8;  // header + payload bytes
  RunRanks(kP, [&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const CapacityLayout layout = UniformLayout(kP, kCap);

    // At the bound: coalesced, single unsegmented wire message, and the
    // only substrate traffic of the exchange is that one payload send.
    const std::uint64_t before_at = mpisim::Ctx().stats.messages_sent;
    const ExchangeStats at =
        RotationOnce(tr, layout, Mode::kAuto, 51, kBound);
    const std::uint64_t sent_at =
        mpisim::Ctx().stats.messages_sent - before_at;
    EXPECT_EQ(at.messages_sent, 1);
    EXPECT_EQ(at.segments, 1);
    EXPECT_EQ(sent_at, 1u);  // coalesced: no barriers, no counts round

    // One byte below: sparse, chunked. Chunk capacity is kBound - 1 - 8
    // payload bytes per message, so the 8 + kCap*8 byte message needs
    // exactly two chunks.
    const ExchangeStats below =
        RotationOnce(tr, layout, Mode::kAuto, 52, kBound - 1);
    EXPECT_EQ(below.messages_sent, 1);
    EXPECT_EQ(below.segments,
              mpisim::SparseChunksOf(kBound, kBound - 1));
    EXPECT_EQ(below.segments, 2);
  });
}

/// Mode::kAuto never takes the dense path for a segment exchange, however
/// small the group: below the segment limit every rank sends exactly one
/// message per non-empty destination, with no counts round (the dense
/// path would cost it 2(p-1) messages).
TEST(ExchangeAutoThreshold, SmallGroupsStayCoalesced) {
  constexpr std::int64_t kCap = 16;
  for (int p : {3, 5, 9, 17}) {
    RunRanks(p, [&](mpisim::Comm& world) {
      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      auto tr = jsort::MakeRbcTransport(rw);
      const std::uint64_t before = mpisim::Ctx().stats.messages_sent;
      const ExchangeStats st =
          RotationOnce(tr, UniformLayout(p, kCap), Mode::kAuto, 53,
                       jsort::exchange::kDefaultSegmentBytes);
      EXPECT_EQ(st.messages_sent, 1) << "p=" << p;
      EXPECT_EQ(mpisim::Ctx().stats.messages_sent - before, 1u) << "p=" << p;
    });
  }
}

/// ExchangeStats.segments must reconcile with the substrate's measured
/// message counters on both segmented paths: per rank for the dense path
/// (p-1 counts messages + segments payload messages), globally for the
/// sparse path (sum of segments + the 4(p-1) tree edges of the two
/// termination barriers).
TEST(ExchangeAutoThreshold, SegmentsConsistentWithMeasuredMessages) {
  constexpr int kP = 6;
  constexpr std::int64_t kCap = 32;
  constexpr std::int64_t kSeg = 64;  // 8 elements per dense segment
  RunRanks(kP, [&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const CapacityLayout layout = UniformLayout(kP, kCap);

    mpisim::Barrier(world);
    const std::uint64_t before_dense = mpisim::Ctx().stats.messages_sent;
    const ExchangeStats dense =
        RotationOnce(tr, layout, Mode::kAlltoallv, 53, kSeg);
    const std::uint64_t sent_dense =
        mpisim::Ctx().stats.messages_sent - before_dense;
    EXPECT_EQ(dense.segments,
              mpisim::AlltoallvSegmentsOf(kCap, sizeof(double), kSeg) +
                  (kP - 2));  // one real block + p-2 empty blocks
    EXPECT_EQ(sent_dense,
              static_cast<std::uint64_t>(kP - 1 + dense.segments));

    mpisim::Barrier(world);
    const std::uint64_t before_sparse = mpisim::Ctx().stats.messages_sent;
    const ExchangeStats sparse =
        RotationOnce(tr, layout, Mode::kSparse, 54, kSeg);
    const double local_delta = static_cast<double>(
        mpisim::Ctx().stats.messages_sent - before_sparse);
    double global_delta = 0.0;
    mpisim::Allreduce(&local_delta, &global_delta, 1,
                      mpisim::Datatype::kFloat64, mpisim::ReduceOp::kSum,
                      world);
    const double local_segments = static_cast<double>(sparse.segments);
    double global_segments = 0.0;
    mpisim::Allreduce(&local_segments, &global_segments, 1,
                      mpisim::Datatype::kFloat64, mpisim::ReduceOp::kSum,
                      world);
    // Two binomial-tree barriers (reduce + bcast chains) cost 4(p-1)
    // messages in total.
    EXPECT_EQ(static_cast<std::int64_t>(global_delta),
              static_cast<std::int64_t>(global_segments) + 4 * (kP - 1));
    EXPECT_EQ(sparse.segments, mpisim::SparseChunksOf(8 + kCap * 8, kSeg));
  });
}

/// The whole point of the large-message regime: on a skewed workload no
/// single wire message of the segmented paths exceeds segment_bytes,
/// while the unsegmented coalesced path ships the whole payload at once.
TEST(ExchangeSegmentBound, MaxMessageBoundedBySegmentBytes) {
  constexpr int kP = 6;
  constexpr std::int64_t kCap = 512;  // 4 KiB payload per destination
  constexpr std::int64_t kSeg = 256;
  RunRanks(kP, [&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    const CapacityLayout layout = UniformLayout(kP, kCap);

    mpisim::Barrier(world);
    mpisim::Ctx().stats.max_message_bytes = 0;
    RotationOnce(tr, layout, Mode::kSparse, 55, kSeg);
    EXPECT_LE(mpisim::Ctx().stats.max_message_bytes,
              static_cast<std::uint64_t>(kSeg));

    mpisim::Barrier(world);
    mpisim::Ctx().stats.max_message_bytes = 0;
    RotationOnce(tr, layout, Mode::kAlltoallv, 56, kSeg);
    EXPECT_LE(mpisim::Ctx().stats.max_message_bytes,
              static_cast<std::uint64_t>(kSeg));

    mpisim::Barrier(world);
    mpisim::Ctx().stats.max_message_bytes = 0;
    RotationOnce(tr, layout, Mode::kCoalesced, 57, kSeg);
    EXPECT_EQ(mpisim::Ctx().stats.max_message_bytes,
              static_cast<std::uint64_t>(8 + kCap * 8));
  });
}

/// The sorters accept the knob end to end: a segmented jquick still sorts
/// and reports more wire segments than logical messages.
TEST(ExchangeSegmentBound, JQuickSortsWithSegmentLimit) {
  constexpr int kP = 8;
  constexpr std::int64_t kQuota = 64;
  testutil::PerRank<std::vector<double>> outs(kP);
  testutil::PerRank<jsort::JQuickStats> stats(kP);
  RunRanks(kP, [&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    auto tr = jsort::MakeRbcTransport(rw);
    auto input = jsort::GenerateInput(jsort::InputKind::kUniform,
                                      world.Rank(), kP, kQuota, 77);
    jsort::JQuickConfig cfg;
    cfg.segment_bytes = 64;  // far below a quota-sized payload
    jsort::JQuickStats st;
    auto out = jsort::JQuickSort(tr, std::move(input), cfg, &st);
    outs.Set(world.Rank(), std::move(out));
    stats.Set(world.Rank(), st);
  });
  std::vector<double> all;
  std::int64_t messages = 0, segments = 0;
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(outs[r].size(), static_cast<std::size_t>(kQuota));
    EXPECT_TRUE(std::is_sorted(outs[r].begin(), outs[r].end()));
    all.insert(all.end(), outs[r].begin(), outs[r].end());
    messages += stats[r].messages_sent;
    segments += stats[r].segments_sent;
  }
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_GT(segments, messages);  // the limit actually split payloads
}

}  // namespace
