// Property tests for the node-aware hierarchical exchange: randomized
// traffic matrices asserting byte-exact equivalence of the hierarchical
// delivery path (exchange::Mode::kHierarchical, the three-phase
// point-to-point engine of sort/exchange.cpp) with every flat path,
// across all three Transport backends, the segment-size sweep, and
// machine shapes including ragged node sizes, 1-rank nodes and the
// one-node degenerate case (where nothing crosses the network). Also
// pins the auto-routing contract: kAuto takes the hierarchical path
// exactly when the cost model is two-level AND the group spans more than
// one node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <tuple>
#include <vector>

#include "sort/exchange.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"
#include "topo/topology.hpp"

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

/// The machine shapes under test, all covering 8 ranks: uniform nodes,
/// ragged sizes with a 1-rank node, and the one-node degenerate case
/// (where the engine must still work -- everything is intra).
std::vector<topo::Topology> Shapes8() {
  return {topo::Topology::Uniform(8, 4),
          topo::Topology::OfNodeSizes({3, 1, 4}),
          topo::Topology::OfNodeSizes({8})};
}

/// Runtime options: the shape installed and a two-level cost model, so
/// Mode::kAuto resolves hierarchically whenever the group spans nodes.
mpisim::Runtime::Options TwoLevelOpts(int p, const topo::Topology& shape) {
  mpisim::Runtime::Options o;
  o.num_ranks = p;
  o.topology = shape;
  o.cost.intra_alpha = o.cost.alpha;
  o.cost.intra_beta = o.cost.beta;
  o.cost.inter_alpha = 25.0 * o.cost.alpha;
  o.cost.inter_beta = 4.0 * o.cost.beta;
  return o;
}

constexpr std::int64_t kSegOneElem = 8;
constexpr std::int64_t kSegPrime = 61;
constexpr std::int64_t kSegHuge = std::int64_t{1} << 20;

class HierExchangeSweep
    : public ::testing::TestWithParam<std::tuple<Backend, std::int64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsBySegment, HierExchangeSweep,
    ::testing::Combine(::testing::Values(Backend::kRbc, Backend::kMpi,
                                         Backend::kIcomm),
                       ::testing::Values(std::int64_t{0}, kSegOneElem,
                                         kSegPrime, kSegHuge)));

/// Randomized group-wise exchange: every rank derives the full cross-rank
/// entry matrix from the shared seed, so each can compute its exact
/// expected delivery and compare byte for byte across the flat paths and
/// the hierarchical engine.
void RandomizedGroupwiseHier(const std::shared_ptr<Transport>& tr,
                             std::uint64_t seed, std::int64_t seg_bytes) {
  const int p = tr->Size();
  const int me = tr->Rank();
  constexpr int kEntries = 4;
  std::mt19937_64 shared(seed);
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
  ExchangeStats hs;
  const auto dense = jsort::exchange::ExchangeGroupwise(
      tr, out, 41, Mode::kAlltoallv, nullptr, seg_bytes);
  const auto sparse = jsort::exchange::ExchangeGroupwise(
      tr, out, 41, Mode::kSparse, nullptr, seg_bytes);
  const auto hier = jsort::exchange::ExchangeGroupwise(
      tr, out, 41, Mode::kHierarchical, &hs, seg_bytes);
  const auto aut = jsort::exchange::ExchangeGroupwise(
      tr, out, 41, Mode::kAuto, nullptr, seg_bytes);
  EXPECT_EQ(dense, sparse);
  EXPECT_EQ(dense, hier);
  EXPECT_EQ(dense, aut);
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

TEST_P(HierExchangeSweep, GroupwiseByteExactAcrossShapes) {
  const auto [b, seg] = GetParam();
  for (const topo::Topology& shape : Shapes8()) {
    for (std::uint64_t seed : {601ull, 602ull}) {
      RunRanks(TwoLevelOpts(8, shape),
               [&, b, seg](mpisim::Comm& world, mpisim::Runtime&) {
                 RandomizedGroupwiseHier(Make(b, world), seed, seg);
               });
    }
  }
}

/// Randomized bucket exchange: the hierarchical path must deliver the
/// exact source-ordered concatenation the dense path delivers -- with no
/// dense counts round (the engine's messages are self-describing).
void RandomizedBucketsHier(const std::shared_ptr<Transport>& tr,
                           std::uint64_t seed, std::int64_t seg_bytes) {
  const int p = tr->Size();
  const int me = tr->Rank();
  std::mt19937_64 shared(seed);
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
  ExchangeStats ds, hs;
  const testutil::FlatBuckets flat(buckets);
  const auto dense = jsort::exchange::ExchangeBuckets(
      *tr, flat.elements, flat.offsets, 43, &ds, seg_bytes, Mode::kAlltoallv);
  const auto hier = jsort::exchange::ExchangeBuckets(
      *tr, flat.elements, flat.offsets, 43, &hs, seg_bytes,
      Mode::kHierarchical);
  const auto aut = jsort::exchange::ExchangeBuckets(
      *tr, flat.elements, flat.offsets, 43, nullptr, seg_bytes, Mode::kAuto);
  EXPECT_EQ(dense, hier);
  EXPECT_EQ(dense, aut);
  EXPECT_EQ(ds.elements_sent, hs.elements_sent);
  if (jsort::exchange::VnodesOfGroup(*tr).Count() == 1) {
    EXPECT_EQ(hs.inter_messages, 0);
    EXPECT_EQ(hs.inter_bytes, 0);
  }
  std::vector<double> expect;
  for (int r = 0; r < p; ++r) {
    for (std::int64_t i = 0;
         i < sizes[static_cast<std::size_t>(r)][static_cast<std::size_t>(me)];
         ++i) {
      expect.push_back(value(r, me, i));
    }
  }
  EXPECT_EQ(dense, expect) << "seg_bytes " << seg_bytes;
}

TEST_P(HierExchangeSweep, BucketsByteExactAcrossShapes) {
  const auto [b, seg] = GetParam();
  for (const topo::Topology& shape : Shapes8()) {
    for (std::uint64_t seed : {701ull, 702ull}) {
      RunRanks(TwoLevelOpts(8, shape),
               [&, b, seg](mpisim::Comm& world, mpisim::Runtime&) {
                 RandomizedBucketsHier(Make(b, world), seed, seg);
               });
    }
  }
}

/// Randomized slot-interval redistribution (the jquick shape) through
/// StartSegmentExchange: the hierarchical delivery must land exactly the
/// slots of this rank's capacity interval, region by region, like every
/// flat mode -- including skewed layouts where some ranks receive
/// nothing.
void RandomizedSegmentExchangeHier(const std::shared_ptr<Transport>& tr,
                                   std::uint64_t seed,
                                   std::int64_t seg_bytes, bool skewed) {
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
        tr, layout, std::move(segs), tag, mode, nullptr, seg_bytes);
    WaitPoll(poll);
    for (auto& s : sinks) std::sort(s.begin(), s.end());
    return sinks;
  };

  const auto dense = run_once(Mode::kAlltoallv, 61);
  const auto hier = run_once(Mode::kHierarchical, 62);
  const auto aut = run_once(Mode::kAuto, 63);
  EXPECT_EQ(dense, hier) << "seg_bytes " << seg_bytes;
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
    EXPECT_EQ(hier[static_cast<std::size_t>(rg)], expect)
        << "region " << rg << " seg_bytes " << seg_bytes;
  }
}

TEST_P(HierExchangeSweep, SegmentExchangeByteExactAcrossShapes) {
  const auto [b, seg] = GetParam();
  for (const topo::Topology& shape : Shapes8()) {
    for (std::uint64_t seed : {801ull, 802ull}) {
      RunRanks(TwoLevelOpts(8, shape),
               [&, b, seg](mpisim::Comm& world, mpisim::Runtime&) {
                 RandomizedSegmentExchangeHier(Make(b, world), seed, seg,
                                               /*skewed=*/false);
               });
      RunRanks(TwoLevelOpts(8, shape),
               [&, b, seg](mpisim::Comm& world, mpisim::Runtime&) {
                 RandomizedSegmentExchangeHier(Make(b, world), seed + 50, seg,
                                               /*skewed=*/true);
               });
    }
  }
}

/// kAuto routing is a function of two globally shared facts -- the
/// installed cost model and the group's node span. Two-level model +
/// multi-node group: the engine runs (per-level counters populate, no
/// dense counts round). Flat model, same machine: the flat path runs and
/// the per-level counters stay zero.
TEST(HierAutoRouting, FollowsCostModelAndNodeSpan) {
  const topo::Topology shape = topo::Topology::Uniform(8, 4);
  auto exchange_with = [](mpisim::Comm& world, ExchangeStats* stats) {
    auto tr = jsort::MakeMpiTransport(world);
    const int p = tr->Size();
    std::vector<std::vector<double>> buckets(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      buckets[static_cast<std::size_t>(d)].assign(4, world.Rank() * 1.0 + d);
    }
    const testutil::FlatBuckets flat(buckets);
    jsort::exchange::ExchangeBuckets(*tr, flat.elements, flat.offsets, 43,
                                     stats, 0, Mode::kAuto);
  };

  testutil::PerRank<ExchangeStats> two_level(8);
  RunRanks(TwoLevelOpts(8, shape),
           [&](mpisim::Comm& world, mpisim::Runtime&) {
             ExchangeStats st;
             exchange_with(world, &st);
             two_level.Set(world.Rank(), st);
           });
  std::int64_t inter = 0, intra = 0;
  for (int r = 0; r < 8; ++r) {
    inter += two_level[r].inter_messages;
    intra += two_level[r].intra_messages;
  }
  // The engine ran: cross-node traffic travels gateway-to-gateway
  // (exactly one bundle per ordered node pair) and the intra phases carry
  // the rest.
  EXPECT_EQ(inter, 2);
  EXPECT_GT(intra, 0);

  mpisim::Runtime::Options flat;
  flat.num_ranks = 8;
  flat.topology = shape;  // same machine, but a flat (one-level) model
  testutil::PerRank<ExchangeStats> flat_stats(8);
  RunRanks(flat, [&](mpisim::Comm& world, mpisim::Runtime&) {
    ExchangeStats st;
    exchange_with(world, &st);
    flat_stats.Set(world.Rank(), st);
  });
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(flat_stats[r].inter_messages, 0);
    EXPECT_EQ(flat_stats[r].intra_messages, 0);
    EXPECT_EQ(flat_stats[r].inter_bytes, 0);
  }
}

}  // namespace
