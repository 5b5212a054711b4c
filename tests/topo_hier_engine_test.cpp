// Wire-level tests of the hierarchical exchange engine
// (sort/exchange.cpp) through exchange::ExchangeBuckets: exact
// message counts per machine shape, frame bounds, bit-identical virtual
// time across fresh runtimes, and failure propagation. Byte-exactness
// against the flat paths is the property suite's job
// (topo_exchange_property_test.cpp); every run here also checks its
// delivery against the expected source-ordered concatenation.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sort/jsort.hpp"
#include "testutil.hpp"
#include "topo/topology.hpp"

namespace {

using jsort::exchange::ExchangeStats;
using jsort::exchange::Mode;

constexpr int kTag = 47;

mpisim::Runtime::Options TwoLevelOpts(const topo::Topology& shape) {
  mpisim::Runtime::Options o;
  o.num_ranks = shape.TotalRanks();
  o.topology = shape;
  o.cost.intra_alpha = o.cost.alpha;
  o.cost.intra_beta = o.cost.beta;
  o.cost.inter_alpha = 25.0 * o.cost.alpha;
  o.cost.inter_beta = 4.0 * o.cost.beta;
  return o;
}

std::shared_ptr<jsort::Transport> RbcTransportOf(mpisim::Comm& world) {
  rbc::Comm rw;
  rbc::Create_RBC_Comm(world, &rw);
  return jsort::MakeRbcTransport(rw);
}

/// Phase A + phase B + phase C: sum_u s_u(s_u - 1) + m(m - 1) +
/// sum_u min(m - 1, s_u)(s_u - 1).
std::int64_t ExpectedMessages(const topo::Topology& shape) {
  const std::int64_t m = shape.NodeCount();
  std::int64_t n = m * (m - 1);
  for (const int s : shape.NodeSizes()) {
    n += static_cast<std::int64_t>(s) * (s - 1) +
         std::min<std::int64_t>(m - 1, s) * (s - 1);
  }
  return n;
}

/// What one rank saw of one exchange.
struct RankOutcome {
  double clock = 0.0;
  mpisim::Stats stats;  // the rank's substrate counters after the run
  ExchangeStats es;
};

/// Runs one bucket exchange in a fresh runtime: rank r sends rank d
/// uniform(0, max_count) doubles drawn from a shared seed (empty buckets
/// included), and every rank checks that it received the source-ordered
/// concatenation of its buckets.
std::vector<RankOutcome> RunBuckets(const topo::Topology& shape,
                                    std::uint64_t seed, int max_count,
                                    std::int64_t seg_bytes, Mode mode) {
  const int p = shape.TotalRanks();
  testutil::PerRank<ExchangeStats> es(p);
  mpisim::Runtime rt(TwoLevelOpts(shape));
  rt.Run([&](mpisim::Comm& world) {
    auto tr = RbcTransportOf(world);
    const int me = world.Rank();
    std::mt19937_64 shared(seed);
    std::vector<std::vector<int>> sizes(static_cast<std::size_t>(p));
    for (auto& row : sizes) {
      for (int d = 0; d < p; ++d) {
        row.push_back(static_cast<int>(shared() % (max_count + 1)));
      }
    }
    auto value = [](int r, int d, int i) {
      return r * 1e6 + d * 1e3 + static_cast<double>(i);
    };
    std::vector<std::vector<double>> buckets(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      for (int i = 0; i < sizes[static_cast<std::size_t>(me)]
                               [static_cast<std::size_t>(d)];
           ++i) {
        buckets[static_cast<std::size_t>(d)].push_back(value(me, d, i));
      }
    }
    std::vector<double> expect;
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < sizes[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(me)];
           ++i) {
        expect.push_back(value(r, me, i));
      }
    }
    ExchangeStats mine;
    const testutil::FlatBuckets flat(buckets);
    EXPECT_EQ(jsort::exchange::ExchangeBuckets(*tr, flat.elements,
                                               flat.offsets, flat.dests,
                                               kTag, &mine, seg_bytes, mode),
              expect)
        << "rank " << me;
    es.Set(me, mine);
  });
  std::vector<RankOutcome> out(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& o = out[static_cast<std::size_t>(r)];
    o.clock = rt.ContextOf(r).clock.Now();
    o.stats = rt.ContextOf(r).stats;
    o.es = es[r];
  }
  return out;
}

std::int64_t SumSent(const std::vector<RankOutcome>& ranks) {
  std::int64_t n = 0;
  for (const RankOutcome& o : ranks) {
    n += static_cast<std::int64_t>(o.stats.messages_sent);
  }
  return n;
}

std::int64_t SumInterSent(const std::vector<RankOutcome>& ranks) {
  std::int64_t n = 0;
  for (const RankOutcome& o : ranks) {
    n += static_cast<std::int64_t>(o.stats.inter_messages_sent);
  }
  return n;
}

/// The engine's own accounting matches the substrate's send counters on
/// every rank (the transport set-up sends nothing).
void ExpectStatsReconcile(const std::vector<RankOutcome>& ranks) {
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankOutcome& o = ranks[r];
    EXPECT_EQ(o.es.segments,
              static_cast<std::int64_t>(o.stats.messages_sent))
        << "rank " << r;
    EXPECT_EQ(o.es.inter_messages,
              static_cast<std::int64_t>(o.stats.inter_messages_sent))
        << "rank " << r;
    EXPECT_EQ(o.es.intra_bytes + o.es.inter_bytes,
              static_cast<std::int64_t>(o.stats.bytes_sent))
        << "rank " << r;
  }
}

TEST(HierEngineWire, ExactMessageCountsOnEightByEight) {
  const topo::Topology shape = topo::Topology::Uniform(64, 8);
  ASSERT_EQ(ExpectedMessages(shape), 896);
  for (const int max_count : {0, 3, 40}) {
    const auto ranks =
        RunBuckets(shape, 1301 + max_count, max_count, 0, Mode::kHierarchical);
    EXPECT_EQ(SumSent(ranks), 896) << "max_count " << max_count;
    EXPECT_EQ(SumInterSent(ranks), 56) << "max_count " << max_count;
    ExpectStatsReconcile(ranks);
    // With m - 1 <= s every rank makes at most one inter-node send.
    for (const RankOutcome& o : ranks) {
      EXPECT_LE(o.stats.inter_messages_sent, 1u);
      EXPECT_LE(o.stats.inter_messages_received, 1u);
    }
  }
}

TEST(HierEngineWire, ExactMessageCountsOnRaggedAndWideShapes) {
  // Ragged sizes with a 1-rank node, and more nodes than ranks per node
  // (m - 1 > s: every rank is a gateway for several remote nodes).
  for (const topo::Topology& shape :
       {topo::Topology::OfNodeSizes({3, 1, 4, 2, 6}),
        topo::Topology::Uniform(12, 2),
        topo::Topology::OfNodeSizes({2, 1, 1, 3, 1, 2})}) {
    const std::int64_t m = shape.NodeCount();
    for (const int max_count : {0, 17}) {
      const auto ranks = RunBuckets(shape, 1401 + max_count, max_count, 0,
                                    Mode::kHierarchical);
      EXPECT_EQ(SumSent(ranks), ExpectedMessages(shape))
          << "nodes " << m << " max_count " << max_count;
      EXPECT_EQ(SumInterSent(ranks), m * (m - 1));
      ExpectStatsReconcile(ranks);
    }
  }
  EXPECT_EQ(ExpectedMessages(topo::Topology::Uniform(12, 2)), 54);
}

TEST(HierEngineWire, FramesNeverExceedSegmentBytes) {
  const topo::Topology shape = topo::Topology::OfNodeSizes({3, 1, 4});
  for (const std::int64_t seg : {std::int64_t{8}, std::int64_t{61},
                                 std::int64_t{4096}}) {
    const auto ranks = RunBuckets(shape, 1501, 300, seg, Mode::kHierarchical);
    for (const RankOutcome& o : ranks) {
      EXPECT_LE(o.stats.max_message_bytes, static_cast<std::uint64_t>(seg));
    }
    EXPECT_GT(SumSent(ranks), ExpectedMessages(shape));
    ExpectStatsReconcile(ranks);
  }
}

TEST(HierEngineWire, UnsegmentedMessagesSendTheirTailInOnePiece) {
  // 12,000-double buckets make the relay messages and bundles longer than
  // the first frame: each such message ships as a bounded first frame
  // plus one tail message.
  const topo::Topology shape = topo::Topology::Uniform(8, 4);
  const auto ranks = RunBuckets(shape, 1601, 12000, 0, Mode::kHierarchical);
  std::uint64_t largest = 0;
  for (const RankOutcome& o : ranks) {
    largest = std::max(largest, o.stats.max_message_bytes);
  }
  EXPECT_GT(largest, static_cast<std::uint64_t>(jsort::exchange::kFirstFrameBytes));
  EXPECT_GT(SumSent(ranks), ExpectedMessages(shape));
  ExpectStatsReconcile(ranks);
}

TEST(HierEngineDeterminism, FreshRuntimesGiveBitIdenticalClocksAndStats) {
  const topo::Topology shape = topo::Topology::Uniform(64, 8);
  const auto a = RunBuckets(shape, 1701, 40, 0, Mode::kAuto);
  const auto b = RunBuckets(shape, 1701, 40, 0, Mode::kAuto);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].clock, b[r].clock) << "rank " << r;
    const mpisim::Stats& x = a[r].stats;
    const mpisim::Stats& y = b[r].stats;
    EXPECT_EQ(x.messages_sent, y.messages_sent) << "rank " << r;
    EXPECT_EQ(x.bytes_sent, y.bytes_sent) << "rank " << r;
    EXPECT_EQ(x.messages_received, y.messages_received) << "rank " << r;
    EXPECT_EQ(x.bytes_received, y.bytes_received) << "rank " << r;
    EXPECT_EQ(x.max_message_bytes, y.max_message_bytes) << "rank " << r;
    EXPECT_EQ(x.inter_messages_sent, y.inter_messages_sent) << "rank " << r;
    EXPECT_EQ(x.inter_bytes_sent, y.inter_bytes_sent) << "rank " << r;
    EXPECT_EQ(x.inter_messages_received, y.inter_messages_received)
        << "rank " << r;
    EXPECT_EQ(x.inter_bytes_received, y.inter_bytes_received)
        << "rank " << r;
  }
  // kAuto took the engine: exactly its message count.
  EXPECT_EQ(SumSent(a), 896);
}

TEST(HierEngineSorters, SortOnTwoLevelMachines) {
  // kAuto routes every exchange whose group spans nodes through the
  // engine: JQuick's janus ranks finish one group's exchange before the
  // other's, and consecutive levels reuse one tag. Every sorter must still
  // return a globally sorted permutation, JQuick with exactly n/p
  // elements per rank.
  constexpr std::int64_t kQuota = 37;
  for (const topo::Topology& shape :
       {topo::Topology::Uniform(16, 4),
        topo::Topology::OfNodeSizes({3, 1, 4, 2, 6}),
        topo::Topology::Uniform(12, 2)}) {
    for (const jsort::Backend backend :
         {jsort::Backend::kRbc, jsort::Backend::kMpi,
          jsort::Backend::kIcomm}) {
      testutil::RunRanks(
          TwoLevelOpts(shape), [&](mpisim::Comm& world, mpisim::Runtime&) {
            const int p = world.Size();
            rbc::Comm rw;
            rbc::Create_RBC_Comm(world, &rw);
            auto tr = jsort::MakeTransport(backend, world);
            const auto input = jsort::GenerateInput(
                jsort::InputKind::kFewDistinct, world.Rank(), p, kQuota, 91);
            const auto before = jsort::GlobalFingerprint(input, rw);
            const auto jq = jsort::JQuickSort(tr, input);
            EXPECT_EQ(static_cast<std::int64_t>(jq.size()), kQuota);
            EXPECT_EQ(jsort::GlobalFingerprint(jq, rw), before);
            EXPECT_TRUE(jsort::IsGloballySorted(jq, rw));
            jsort::SampleSortStats st;
            const auto ss = jsort::SampleSort(tr, input, {}, &st);
            EXPECT_EQ(jsort::GlobalFingerprint(ss, rw), before);
            EXPECT_TRUE(jsort::IsGloballySorted(ss, rw));
            // The engine ran: the dense path sends at least p - 1.
            EXPECT_LT(st.segments_sent, p - 1);
            const auto ml = jsort::MultilevelSampleSort(tr, input);
            EXPECT_EQ(jsort::GlobalFingerprint(ml, rw), before);
            EXPECT_TRUE(jsort::IsGloballySorted(ml, rw));
          });
    }
  }
}

TEST(HierEngineAbort, PeerFailureNamesTheFailedRank) {
  constexpr int kP = 16;
  constexpr int kFailed = 5;
  const topo::Topology shape = topo::Topology::Uniform(kP, 4);
  for (const bool rbc_backend : {true, false}) {
    testutil::PerRank<int> origins(kP);
    mpisim::Runtime::Options o = TwoLevelOpts(shape);
    o.deadlock_timeout = std::chrono::milliseconds(20'000);
    mpisim::Runtime rt(o);
    try {
      rt.Run([&](mpisim::Comm& world) {
        auto tr = rbc_backend ? RbcTransportOf(world)
                              : jsort::MakeMpiTransport(world);
        if (world.Rank() == kFailed) throw mpisim::Error("injected failure");
        const testutil::FlatBuckets flat(std::vector<std::vector<double>>(
            kP, std::vector<double>(4, 1.0)));
        try {
          jsort::exchange::ExchangeBuckets(*tr, flat.elements, flat.offsets,
                                           flat.dests, kTag, nullptr, 0,
                                           Mode::kHierarchical);
        } catch (const mpisim::AbortedError& e) {
          origins.Set(world.Rank(), e.origin_rank());
          return;
        }
        ADD_FAILURE() << "rank " << world.Rank() << " was not aborted";
      });
      ADD_FAILURE() << "expected the injected failure to re-throw";
    } catch (const mpisim::Error& e) {
      EXPECT_NE(std::string(e.what()).find("injected failure"),
                std::string::npos)
          << e.what();
    }
    for (int r = 0; r < kP; ++r) {
      if (r == kFailed) continue;
      EXPECT_EQ(origins[r], kFailed)
          << "rank " << r << (rbc_backend ? " (rbc)" : " (mpi)");
    }
  }
}

}  // namespace
