// The jsort::exchange redistribution layer: bucket exchange and the
// coalesced / dense segment exchange, across all three Transport
// backends, with skewed partitions and empty ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "forwarding_transport.hpp"
#include "sort/exchange.hpp"
#include "sort/jquick.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"
#include "topo/topology.hpp"

namespace {

using jsort::CapacityLayout;
using jsort::Transport;
using jsort::exchange::ExchangeStats;
using jsort::exchange::Mode;
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

class ExchangeSweep : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, ExchangeSweep,
                         ::testing::Values(Backend::kRbc, Backend::kMpi,
                                           Backend::kIcomm));

TEST_P(ExchangeSweep, BucketExchangeRoutesEverythingBySource) {
  const Backend b = GetParam();
  RunRanks(5, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    const int p = tr->Size();
    const int me = tr->Rank();
    // Rank i sends i copies of (100*i + dest) to each dest.
    std::vector<std::vector<double>> buckets(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      buckets[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(me), 100.0 * me + d);
    }
    ExchangeStats stats;
    const testutil::FlatBuckets flat(buckets);
    std::vector<double> got = jsort::exchange::ExchangeBuckets(
        *tr, flat.elements, flat.offsets, flat.dests, 9, &stats);
    // From each source s: s copies of 100*s + me, ordered by source rank.
    std::vector<double> expect;
    for (int s = 0; s < p; ++s) {
      for (int c = 0; c < s; ++c) expect.push_back(100.0 * s + me);
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(stats.messages_sent, p - 1);  // dense: empties transmitted
  });
}

TEST_P(ExchangeSweep, BucketExchangeHandlesSkewToOneRank) {
  const Backend b = GetParam();
  RunRanks(6, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    const int p = tr->Size();
    const int me = tr->Rank();
    // Everything goes to rank 0; every other rank receives nothing.
    std::vector<std::vector<double>> buckets(static_cast<std::size_t>(p));
    buckets[0] = {me * 1.0, me * 1.0 + 0.5};
    const testutil::FlatBuckets flat(buckets);
    std::vector<double> got =
        jsort::exchange::ExchangeBuckets(*tr, flat.elements, flat.offsets,
                                         flat.dests, 9);
    if (me == 0) {
      std::vector<double> expect;
      for (int s = 0; s < p; ++s) {
        expect.push_back(s * 1.0);
        expect.push_back(s * 1.0 + 0.5);
      }
      EXPECT_EQ(got, expect);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

/// One uniform layout shared by the segment-exchange tests: p ranks of
/// capacity `cap` each.
CapacityLayout UniformLayout(int p, std::int64_t cap) {
  return CapacityLayout{.p = p, .quota = cap, .cap_first = cap,
                        .cap_last = cap};
}

/// Every rank holds `cap` elements of one region laid out in rank order
/// but rotated by one rank, so every element moves to the neighbour.
void RotationExchange(const std::shared_ptr<Transport>& tr, Mode mode) {
  const int p = tr->Size();
  const int me = tr->Rank();
  constexpr std::int64_t kCap = 8;
  const CapacityLayout layout = UniformLayout(p, kCap);
  // My elements occupy the slot interval of rank (me+1) % p.
  const int owner = (me + 1) % p;
  const std::int64_t begin = layout.PrefixBefore(owner);
  std::vector<double> data(static_cast<std::size_t>(kCap));
  for (std::int64_t i = 0; i < kCap; ++i) {
    data[static_cast<std::size_t>(i)] = static_cast<double>(begin + i);
  }
  std::vector<double> sink;
  std::vector<Segment> segs(1);
  segs[0] = Segment{data.data(), kCap, begin, &sink, kCap};
  ExchangeStats stats;
  jsort::Poll poll = jsort::exchange::StartSegmentExchange(
      tr, layout, std::move(segs), 11, mode, &stats);
  data.clear();  // the layer copied the payload out
  WaitPoll(poll);
  // I receive exactly my own capacity interval, in slot order from one
  // source.
  std::vector<double> expect(static_cast<std::size_t>(kCap));
  const std::int64_t my_begin = layout.PrefixBefore(me);
  for (std::int64_t i = 0; i < kCap; ++i) {
    expect[static_cast<std::size_t>(i)] = static_cast<double>(my_begin + i);
  }
  EXPECT_EQ(sink, expect);
  if (p > 1) {
    EXPECT_EQ(stats.elements_sent, kCap);
    if (mode == Mode::kAlltoallv) {
      EXPECT_EQ(stats.messages_sent, p - 1);  // dense rounds
    } else {
      EXPECT_EQ(stats.messages_sent, 1);  // skewed: one real destination
    }
  }
}

TEST_P(ExchangeSweep, SegmentExchangeCoalescedRotation) {
  const Backend b = GetParam();
  RunRanks(6, [&](mpisim::Comm& world) {
    RotationExchange(Make(b, world), Mode::kCoalesced);
  });
}

TEST_P(ExchangeSweep, SegmentExchangeSparseRotation) {
  const Backend b = GetParam();
  RunRanks(6, [&](mpisim::Comm& world) {
    RotationExchange(Make(b, world), Mode::kSparse);
  });
}

TEST_P(ExchangeSweep, SegmentExchangeDenseRotation) {
  const Backend b = GetParam();
  RunRanks(6, [&](mpisim::Comm& world) {
    RotationExchange(Make(b, world), Mode::kAlltoallv);
  });
}

/// Two regions (the jquick shape): small region [0, S), large [S, total);
/// every rank contributes an uneven share of each. Verifies per-segment
/// sinks receive exactly their region overlap, in both modes.
void TwoRegionExchange(const std::shared_ptr<Transport>& tr, Mode mode) {
  const int p = tr->Size();
  const int me = tr->Rank();
  constexpr std::int64_t kCap = 6;
  const CapacityLayout layout = UniformLayout(p, kCap);
  const std::int64_t total = layout.Total();
  // Skewed split: the small region covers the first 1/3 of slots (rounded
  // so it generally straddles a rank boundary -> a janus-style overlap).
  const std::int64_t s_total = total / 3 + 1;
  // Rank r holds small elements [r * s_total / p, (r+1) * s_total / p) and
  // the analogous slice of the large region -- uneven shares, some empty.
  const std::int64_t s_begin = me * s_total / p;
  const std::int64_t s_count = (me + 1) * s_total / p - s_begin;
  const std::int64_t l_total = total - s_total;
  const std::int64_t l_begin = s_total + me * l_total / p;
  const std::int64_t l_count =
      s_total + (me + 1) * l_total / p - l_begin;

  std::vector<double> small(static_cast<std::size_t>(s_count)),
      large(static_cast<std::size_t>(l_count));
  for (std::int64_t i = 0; i < s_count; ++i) {
    small[static_cast<std::size_t>(i)] = static_cast<double>(s_begin + i);
  }
  for (std::int64_t i = 0; i < l_count; ++i) {
    large[static_cast<std::size_t>(i)] = static_cast<double>(l_begin + i);
  }

  const std::int64_t expect_small =
      jsort::OverlapWithRegion(layout, me, 0, s_total);
  const std::int64_t expect_large =
      jsort::OverlapWithRegion(layout, me, s_total, total);
  std::vector<double> recv_small, recv_large;
  std::vector<Segment> segs(2);
  segs[0] = Segment{small.data(), s_count, s_begin, &recv_small,
                    expect_small};
  segs[1] = Segment{large.data(), l_count, l_begin, &recv_large,
                    expect_large};
  jsort::Poll poll = jsort::exchange::StartSegmentExchange(
      tr, layout, std::move(segs), 13, mode);
  small.clear();
  large.clear();
  WaitPoll(poll);

  ASSERT_EQ(static_cast<std::int64_t>(recv_small.size()), expect_small);
  ASSERT_EQ(static_cast<std::int64_t>(recv_large.size()), expect_large);
  // The slots of my capacity interval that fall into each region arrive
  // exactly once; order across sources is not specified, so sort.
  std::sort(recv_small.begin(), recv_small.end());
  std::sort(recv_large.begin(), recv_large.end());
  const std::int64_t my_begin = layout.PrefixBefore(me);
  std::vector<double> es, el;
  for (std::int64_t s = my_begin; s < my_begin + kCap; ++s) {
    if (s < s_total) {
      es.push_back(static_cast<double>(s));
    } else {
      el.push_back(static_cast<double>(s));
    }
  }
  EXPECT_EQ(recv_small, es);
  EXPECT_EQ(recv_large, el);
}

TEST_P(ExchangeSweep, TwoRegionSegmentExchangeCoalesced) {
  const Backend b = GetParam();
  RunRanks(7, [&](mpisim::Comm& world) {
    TwoRegionExchange(Make(b, world), Mode::kCoalesced);
  });
}

TEST_P(ExchangeSweep, TwoRegionSegmentExchangeDense) {
  const Backend b = GetParam();
  RunRanks(7, [&](mpisim::Comm& world) {
    TwoRegionExchange(Make(b, world), Mode::kAlltoallv);
  });
}

TEST_P(ExchangeSweep, TwoRegionSegmentExchangeSparse) {
  const Backend b = GetParam();
  RunRanks(7, [&](mpisim::Comm& world) {
    TwoRegionExchange(Make(b, world), Mode::kSparse);
  });
}

/// Randomized equivalence sweep: a globally-agreed random region split and
/// random per-rank slot runs (uniform and skewed layouts), exchanged under
/// every mode -- all modes must deliver exactly the same per-region
/// elements.
void RandomizedEquivalence(const std::shared_ptr<Transport>& tr,
                           std::uint64_t seed, bool skewed) {
  const int p = tr->Size();
  const int me = tr->Rank();
  // Layout and cut points are drawn from a seed-keyed rng every rank runs
  // identically, so all decisions stay globally consistent.
  std::mt19937_64 shared(seed);
  const std::int64_t quota = 6 + static_cast<std::int64_t>(shared() % 6);
  CapacityLayout layout{.p = p, .quota = quota, .cap_first = quota,
                        .cap_last = quota};
  if (skewed && p > 1) {
    layout.cap_first = 1 + static_cast<std::int64_t>(shared() % quota);
    layout.cap_last = 1 + static_cast<std::int64_t>(shared() % quota);
  }
  const std::int64_t total = layout.Total();

  // R regions split the slot space at sorted random cuts; rank r's run is
  // the r-th of p random slot intervals.
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

  // My run's slice of each region becomes one segment; data = slot values.
  std::vector<double> data(static_cast<std::size_t>(run_end - run_begin));
  for (std::int64_t i = 0; i < run_end - run_begin; ++i) {
    data[static_cast<std::size_t>(i)] = static_cast<double>(run_begin + i);
  }
  // One tag per mode run: back-to-back segment exchanges on one tag are
  // not safe for the probe-draining paths (a fast rank's next-run sends
  // could be drained into a slow rank's current run) -- the same reason
  // jquick tags each level distinctly.
  auto run_once = [&](Mode mode, int tag) {
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
        tr, layout, std::move(segs), tag, mode);
    WaitPoll(poll);
    for (auto& s : sinks) std::sort(s.begin(), s.end());
    return sinks;
  };

  const auto dense = run_once(Mode::kAlltoallv, 15);
  const auto coalesced = run_once(Mode::kCoalesced, 16);
  const auto sparse = run_once(Mode::kSparse, 17);
  const auto aut = run_once(Mode::kAuto, 18);
  EXPECT_EQ(dense, coalesced);
  EXPECT_EQ(dense, sparse);
  EXPECT_EQ(dense, aut);
  // And all of them deliver exactly my capacity slots, region by region.
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
    EXPECT_EQ(dense[static_cast<std::size_t>(rg)], expect) << "region " << rg;
  }
}

TEST_P(ExchangeSweep, RandomizedModeEquivalenceUniform) {
  const Backend b = GetParam();
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    RunRanks(8, [&](mpisim::Comm& world) {
      RandomizedEquivalence(Make(b, world), seed, /*skewed=*/false);
    });
  }
}

TEST_P(ExchangeSweep, RandomizedModeEquivalenceSkewed) {
  const Backend b = GetParam();
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    RunRanks(8, [&](mpisim::Comm& world) {
      RandomizedEquivalence(Make(b, world), seed, /*skewed=*/true);
    });
  }
}

/// Group-wise exchange (unknown receive counts): deterministic piece
/// assignment with empty pieces; sparse and dense paths must agree.
TEST_P(ExchangeSweep, GroupwiseSparseMatchesDense) {
  const Backend b = GetParam();
  RunRanks(6, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    const int p = tr->Size();
    const int me = tr->Rank();
    // Rank r sends r copies of (100*r + d) to d = (r+1)%p and, when r is
    // even, 2 copies to d = (r+2)%p; odd ranks pass that entry empty.
    std::vector<double> a(static_cast<std::size_t>(me),
                          100.0 * me + (me + 1) % p);
    std::vector<double> c(me % 2 == 0 ? 2 : 0, 100.0 * me + (me + 2) % p);
    const testutil::DestBuckets out({{(me + 1) % p, a}, {(me + 2) % p, c}});
    const auto exchange = [&](Mode mode, ExchangeStats* es) {
      return jsort::exchange::ExchangeBuckets(*tr, out.elements, out.offsets,
                                              out.dests, 23, es, 0, mode);
    };
    jsort::exchange::ExchangeStats ds, ss;
    auto dense = exchange(Mode::kAlltoallv, &ds);
    auto sparse = exchange(Mode::kSparse, &ss);
    auto aut = exchange(Mode::kAuto, nullptr);
    EXPECT_EQ(dense, sparse);
    EXPECT_EQ(dense, aut);
    EXPECT_EQ(ds.elements_sent, ss.elements_sent);
    EXPECT_EQ(ds.messages_sent, p - 1);
    // Sparse: one message per non-empty non-self destination.
    std::int64_t expect_msgs = me > 0 ? 1 : 0;
    if (me % 2 == 0) ++expect_msgs;
    EXPECT_EQ(ss.messages_sent, expect_msgs);
  });
}

/// A forced dense group-wise exchange runs the dense path on a two-level
/// machine too: p = 8 on two nodes of four under bench_topo's model, one
/// double to every rank. Every rank sends exactly the counts round and the
/// payload round, p - 1 messages each, and reports the dense arithmetic.
TEST_P(ExchangeSweep, ForcedDenseGroupwiseStaysDenseOnTwoLevelMachines) {
  const Backend b = GetParam();
  mpisim::Runtime::Options opts;
  opts.topology = topo::Topology::Uniform(8, 4);
  opts.num_ranks = opts.topology.TotalRanks();
  opts.cost.intra_alpha = opts.cost.alpha;
  opts.cost.intra_beta = opts.cost.beta;
  opts.cost.inter_alpha = 25.0 * opts.cost.alpha;
  opts.cost.inter_beta = 4.0 * opts.cost.beta;
  RunRanks(opts, [&](mpisim::Comm& world, mpisim::Runtime&) {
    auto tr = Make(b, world);
    const int p = tr->Size();
    const int me = tr->Rank();
    std::vector<std::vector<double>> buckets;
    for (int d = 0; d < p; ++d) buckets.push_back({100.0 * me + d});
    const testutil::FlatBuckets flat(buckets);
    ExchangeStats es;
    const std::uint64_t before = mpisim::Ctx().stats.messages_sent;
    const std::vector<double> got = jsort::exchange::ExchangeBuckets(
        *tr, flat.elements, flat.offsets, flat.dests, 25, &es, 0,
        Mode::kAlltoallv);
    EXPECT_EQ(mpisim::Ctx().stats.messages_sent - before,
              static_cast<std::uint64_t>(2 * (p - 1)))
        << "rank " << me;
    std::vector<double> expect;
    for (int s = 0; s < p; ++s) expect.push_back(100.0 * s + me);
    EXPECT_EQ(got, expect);
    EXPECT_EQ(es.messages_sent, p - 1);
    EXPECT_EQ(es.elements_sent, p - 1);
    EXPECT_EQ(es.segments, p - 1);
    EXPECT_EQ(es.intra_messages + es.inter_messages, 0);
    EXPECT_EQ(es.intra_bytes + es.inter_bytes, 0);
  });
}

/// ExchangeBuckets honours kSparse, and kCoalesced, which has no receive
/// counts to end a drain on, runs sparse too: one message per non-empty
/// non-self bucket, chunked by SparseChunksOf, delivering exactly the
/// dense path's bytes.
TEST_P(ExchangeSweep, BucketExchangeHonoursSparse) {
  const Backend b = GetParam();
  RunRanks(7, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    const int p = tr->Size();
    const int me = tr->Rank();
    // Rank r sends (r + d) % 4 * 5 doubles to rank d: a quarter of the
    // buckets are empty, the largest span several 61-byte chunks.
    std::vector<std::vector<double>> buckets(static_cast<std::size_t>(p));
    std::int64_t messages = 0, elements = 0;
    for (int d = 0; d < p; ++d) {
      const int n = (me + d) % 4 * 5;
      for (int i = 0; i < n; ++i) {
        buckets[static_cast<std::size_t>(d)].push_back(me * 1e3 + d + i);
      }
      if (d != me && n != 0) {
        ++messages;
        elements += n;
      }
    }
    const testutil::FlatBuckets flat(buckets);
    for (const std::int64_t seg : {std::int64_t{0}, std::int64_t{61}}) {
      std::int64_t segments = 0;
      for (int d = 0; d < p; ++d) {
        const std::int64_t n = (me + d) % 4 * 5;
        if (d != me && n != 0) {
          segments += mpisim::SparseChunksOf(n * 8, seg);
        }
      }
      const std::vector<double> dense = jsort::exchange::ExchangeBuckets(
          *tr, flat.elements, flat.offsets, flat.dests, 27, nullptr, seg,
          Mode::kAlltoallv);
      for (const Mode mode : {Mode::kSparse, Mode::kCoalesced}) {
        ExchangeStats es;
        EXPECT_EQ(jsort::exchange::ExchangeBuckets(*tr, flat.elements,
                                                   flat.offsets, flat.dests,
                                                   27, &es, seg, mode),
                  dense);
        EXPECT_EQ(es.messages_sent, messages);
        EXPECT_EQ(es.elements_sent, elements);
        EXPECT_EQ(es.segments, segments) << "segment_bytes " << seg;
      }
    }
  });
}

/// ExchangeBuckets rejects malformed buckets before any traffic: a
/// destination out of range, destinations that do not ascend, decreasing
/// offsets, and offsets that do not bound one bucket per destination.
TEST_P(ExchangeSweep, BucketExchangeRejectsMalformedBuckets) {
  const Backend b = GetParam();
  RunRanks(3, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    const std::vector<double> elements{1.0, 2.0, 3.0};
    const auto exchange = [&](std::vector<std::int64_t> offsets,
                              std::vector<int> dests) {
      return jsort::exchange::ExchangeBuckets(*tr, elements, offsets, dests,
                                              31);
    };
    EXPECT_THROW(exchange({0, 1, 3}, {0, 3}), mpisim::UsageError);
    EXPECT_THROW(exchange({0, 1, 3}, {-1, 2}), mpisim::UsageError);
    EXPECT_THROW(exchange({0, 1, 3}, {2, 1}), mpisim::UsageError);
    EXPECT_THROW(exchange({0, 2, 1}, {1, 2}), mpisim::UsageError);
    EXPECT_THROW(exchange({0, 1, 4}, {1, 2}), mpisim::UsageError);
    EXPECT_THROW(exchange({0, 1, 3}, {0, 1, 2}), mpisim::UsageError);
  });
}

TEST_P(ExchangeSweep, SegmentExchangeAllElementsOnOneRank) {
  // Extreme skew: rank 0 holds every element; everyone else holds (and in
  // the end receives) their capacity share -- empty senders must complete.
  const Backend b = GetParam();
  RunRanks(5, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    const int p = tr->Size();
    const int me = tr->Rank();
    constexpr std::int64_t kCap = 4;
    const CapacityLayout layout = UniformLayout(p, kCap);
    const std::int64_t total = layout.Total();
    std::vector<double> data;
    if (me == 0) {
      data.resize(static_cast<std::size_t>(total));
      std::iota(data.begin(), data.end(), 0.0);
    }
    std::vector<double> sink;
    std::vector<Segment> segs(1);
    segs[0] = Segment{data.data(),
                      static_cast<std::int64_t>(data.size()), 0, &sink,
                      kCap};
    jsort::Poll poll = jsort::exchange::StartSegmentExchange(
        tr, layout, std::move(segs), 17, Mode::kCoalesced);
    WaitPoll(poll);
    std::vector<double> expect(static_cast<std::size_t>(kCap));
    std::iota(expect.begin(), expect.end(),
              static_cast<double>(layout.PrefixBefore(me)));
    EXPECT_EQ(sink, expect);
  });
}

/// JQuick sorts correctly on every backend through both routes its kAuto
/// exchange takes: coalesced at the default segment limit, and sparse
/// (`below_flip`) under a limit below one interior destination's message,
/// (2 + n/p) * 8 bytes. The route shows in the sparse collectives a rank
/// starts: none when coalesced, and one per distributed task it is in --
/// at least one per level of its deepest chain of tasks -- when sparse.
/// At n/p = 40 JQuick finishes tasks of up to 14 ranks directly, with no
/// exchange, so 32 ranks split on two levels: the halves of about 16
/// ranks split again, and a janus of the first split runs both halves'
/// exchanges at once.
void SortWithAutoExchange(Backend b, bool below_flip) {
  constexpr int kP = 32;
  constexpr std::int64_t kQuota = 40;
  testutil::PerRank<std::vector<double>> outs(kP);
  testutil::PerRank<jsort::JQuickStats> all_stats(kP);
  RunRanks(kP, [&](mpisim::Comm& world) {
    auto tr = std::make_shared<testutil::RecordingTransport>(Make(b, world));
    auto input = jsort::GenerateInput(jsort::InputKind::kUniform,
                                      world.Rank(), kP, kQuota, 21);
    jsort::JQuickConfig cfg;
    cfg.segment_bytes = below_flip ? (1 + kQuota) * 8
                                   : jsort::exchange::kDefaultSegmentBytes;
    jsort::JQuickStats stats;
    auto out = jsort::JQuickSort(tr, std::move(input), cfg, &stats);
    const int sparse =
        tr->CountInTree(testutil::CollectiveCall::kIsparseAlltoallv);
    EXPECT_GE(stats.distributed_levels, 1);
    if (below_flip) {
      EXPECT_GE(sparse, stats.distributed_levels) << "rank " << world.Rank();
    } else {
      EXPECT_EQ(sparse, 0) << "rank " << world.Rank();
    }
    outs.Set(world.Rank(), std::move(out));
    all_stats.Set(world.Rank(), stats);
  });
  // Some janus of the root's split is in two distributed tasks on level 2.
  bool janus_on_two_levels = false;
  for (int r = 0; r < kP; ++r) {
    janus_on_two_levels |= all_stats[r].janus_episodes >= 1 &&
                           all_stats[r].distributed_levels >= 2;
  }
  EXPECT_TRUE(janus_on_two_levels);
  std::vector<double> all;
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(outs[r].size(), static_cast<std::size_t>(kQuota));
    EXPECT_TRUE(std::is_sorted(outs[r].begin(), outs[r].end()));
    if (r > 0 && !outs[r].empty() && !outs[r - 1].empty()) {
      EXPECT_LE(outs[r - 1].back(), outs[r].front());
    }
    all.insert(all.end(), outs[r].begin(), outs[r].end());
  }
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

class JQuickModeSweep
    : public ::testing::TestWithParam<std::tuple<Backend, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsByRoute, JQuickModeSweep,
    ::testing::Combine(::testing::Values(Backend::kRbc, Backend::kMpi,
                                         Backend::kIcomm),
                       ::testing::Bool()));

TEST_P(JQuickModeSweep, SortsCorrectly) {
  const auto [b, below_flip] = GetParam();
  SortWithAutoExchange(b, below_flip);
}

}  // namespace
