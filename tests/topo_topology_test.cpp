// Units for the topo subsystem's data layer and its integration seams:
// the Topology descriptor, the two-level CostModel (flat defaults must
// stay bit-identical to the pre-two-level arithmetic), the runtime's node
// queries and inter-node traffic counters, vnode derivation, RBC's
// node-spread tree collectives on ragged machines, node-affine range
// allocation, and the topology-derived multilevel branching factor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "mpisim/mpisim.hpp"
#include "rbc/rbc.hpp"
#include "sched/allocator.hpp"
#include "sort/multilevel_sort.hpp"
#include "testutil.hpp"
#include "topo/topology.hpp"

namespace {

using jsort::sched::Block;
using jsort::sched::RangeAllocator;
using mpisim::Datatype;
using testutil::PerRank;
using testutil::RunRanks;
using topo::Topology;

TEST(Topology, FlatAndEmpty) {
  const Topology flat = Topology::Flat();
  EXPECT_TRUE(flat.Empty());
  EXPECT_EQ(flat.NodeCount(), 0);
  EXPECT_EQ(flat.TotalRanks(), 0);
  EXPECT_EQ(flat.NodeOf(0), 0);
  EXPECT_EQ(flat.NodeOf(99), 0);  // everything is node 0 on a flat machine
  EXPECT_EQ(flat.Validate(16), "");
}

TEST(Topology, UniformCoversWithRemainder) {
  const Topology t = Topology::Uniform(10, 4);  // 4 + 4 + 2
  EXPECT_EQ(t.NodeCount(), 3);
  EXPECT_EQ(t.TotalRanks(), 10);
  EXPECT_EQ(t.NodeSize(2), 2);
  EXPECT_EQ(t.NodeFirst(0), 0);
  EXPECT_EQ(t.NodeFirst(1), 4);
  EXPECT_EQ(t.NodeFirst(2), 8);
  EXPECT_EQ(t.Validate(10), "");
  EXPECT_NE(t.Validate(11), "");  // covers 10 ranks, world has 11
  EXPECT_TRUE(Topology::Uniform(8, 0).Empty());  // nonsense size -> flat
}

TEST(Topology, NodeOfBinarySearchOnRaggedSizes) {
  const Topology t = Topology::OfNodeSizes({3, 1, 4});
  const int expect[] = {0, 0, 0, 1, 2, 2, 2, 2};
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(t.NodeOf(r), expect[r]) << "rank " << r;
  }
  EXPECT_EQ(t.NodeSizes(), (std::vector<int>{3, 1, 4}));
  EXPECT_NE(Topology::OfNodeSizes({2, 0, 2}).Validate(4), "");  // size 0
}

TEST(CostModel, FlatDefaultsAreBitIdentical) {
  const mpisim::CostModel m;
  EXPECT_FALSE(m.Hierarchical());
  for (std::uint64_t bytes : {0ull, 8ull, 123ull, 1ull << 20}) {
    // Same expression, so bit-for-bit equal -- the compatibility contract.
    EXPECT_EQ(m.MessageCost(bytes, false), m.MessageCost(bytes));
    EXPECT_EQ(m.MessageCost(bytes, true), m.MessageCost(bytes));
  }
  EXPECT_EQ(m.AlphaFor(true), m.alpha);
  EXPECT_EQ(m.BetaFor(false), m.beta);
}

TEST(CostModel, PartialOverridesInheritFlatParameters) {
  mpisim::CostModel m;
  m.inter_alpha = 250.0;  // only one override set
  EXPECT_TRUE(m.Hierarchical());
  EXPECT_EQ(m.AlphaFor(true), 250.0);
  EXPECT_EQ(m.AlphaFor(false), m.alpha);   // unset -> inherit flat
  EXPECT_EQ(m.BetaFor(true), m.beta);      // unset -> inherit flat
  EXPECT_EQ(m.MessageCost(80, true), 250.0 + m.beta * 10.0);
  EXPECT_EQ(m.MessageCost(80, false), m.alpha + m.beta * 10.0);
}

TEST(Runtime, NodeQueriesAndInterCountersFollowTopology) {
  mpisim::Runtime::Options o;
  o.num_ranks = 4;
  o.topology = Topology::Uniform(4, 2);
  PerRank<mpisim::Stats> stats(4);
  RunRanks(o, [&](mpisim::Comm& world, mpisim::Runtime& rt) {
    EXPECT_EQ(rt.NodeOf(0), 0);
    EXPECT_EQ(rt.NodeOf(3), 1);
    EXPECT_TRUE(rt.SameNode(0, 1));
    EXPECT_FALSE(rt.SameNode(1, 2));
    double x = 1.0;
    switch (world.Rank()) {
      case 0:  // one intra-node and one inter-node message
        mpisim::Send(&x, 1, Datatype::kFloat64, 1, 7, world);
        mpisim::Send(&x, 1, Datatype::kFloat64, 3, 7, world);
        break;
      case 1:
        mpisim::Recv(&x, 1, Datatype::kFloat64, 0, 7, world);
        break;
      case 3:
        mpisim::Recv(&x, 1, Datatype::kFloat64, 0, 7, world);
        break;
      default:
        break;
    }
    stats.Set(world.Rank(), mpisim::Ctx().stats);
  });
  EXPECT_EQ(stats[0].messages_sent, 2u);
  EXPECT_EQ(stats[0].inter_messages_sent, 1u);  // only the 0 -> 3 send
  EXPECT_EQ(stats[0].inter_bytes_sent, 8u);
  EXPECT_EQ(stats[3].inter_messages_received, 1u);
  EXPECT_EQ(stats[1].inter_messages_received, 0u);
}

TEST(Runtime, InterCountersStayZeroOnFlatTopology) {
  PerRank<mpisim::Stats> stats(4);
  RunRanks(4, [&](mpisim::Comm& world) {
    double x = static_cast<double>(world.Rank());
    double sum = 0.0;
    mpisim::Allreduce(&x, &sum, 1, Datatype::kFloat64,
                      mpisim::ReduceOp::kSum, world);
    EXPECT_EQ(sum, 6.0);
    stats.Set(world.Rank(), mpisim::Ctx().stats);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(stats[r].inter_messages_sent, 0u) << "rank " << r;
    EXPECT_EQ(stats[r].inter_bytes_received, 0u) << "rank " << r;
  }
}

TEST(VnodeMap, RaggedRunsWithSingleRankNode) {
  const int node_of[] = {0, 0, 0, 1, 2, 2, 2, 2};
  const topo::VnodeMap vn = topo::VnodesOf(node_of);
  EXPECT_EQ(vn.Count(), 3);
  EXPECT_EQ(vn.size, (std::vector<int>{3, 1, 4}));
  EXPECT_EQ(vn.first, (std::vector<int>{0, 3, 4}));
  EXPECT_EQ(vn.first[vn.vnode_of[3]], 3);  // the 1-rank node starts at 3
  EXPECT_NE(vn.first[vn.vnode_of[5]], 5);
  EXPECT_EQ(vn.first[vn.vnode_of[6]], 4);
}

TEST(VnodeMap, NonContiguousNodeIdSplitsIntoTwoVnodes) {
  // A node id re-appearing after a gap must form a second, independent
  // vnode -- every vnode stays a contiguous rank range.
  const int node_of[] = {0, 1, 1, 0};
  const topo::VnodeMap vn = topo::VnodesOf(node_of);
  EXPECT_EQ(vn.Count(), 3);
  EXPECT_EQ(vn.first, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(vn.vnode_of[3], 2);
}

/// Runtime options with a ragged three-node machine (includes a 1-rank
/// node) and a two-level cost model.
mpisim::Runtime::Options RaggedOpts() {
  mpisim::Runtime::Options o;
  o.num_ranks = 8;
  o.topology = Topology::OfNodeSizes({3, 1, 4});
  o.cost.intra_alpha = o.cost.alpha;
  o.cost.intra_beta = o.cost.beta;
  o.cost.inter_alpha = 25.0 * o.cost.alpha;
  o.cost.inter_beta = 4.0 * o.cost.beta;
  return o;
}

TEST(HierCollectives, MatchFlatCounterpartsOnRaggedTopology) {
  // RBC's tree collectives run on node-spread trees here (two-level model
  // over three vnodes, one of them a 1-rank node).
  RunRanks(RaggedOpts(), [](mpisim::Comm& world, mpisim::Runtime&) {
    rbc::Comm comm;
    rbc::Create_RBC_Comm(world, &comm);
    const int p = comm.Size();
    const int me = comm.Rank();

    // Bcast from a root that is not the first rank of its node.
    double b = me == 5 ? 17.5 : -1.0;
    rbc::Bcast(&b, 1, rbc::Datatype::kFloat64, /*root=*/5, comm);
    EXPECT_EQ(b, 17.5);

    // Reduce (sum) to a root inside a node, broadcast back, against the
    // closed form.
    double x = static_cast<double>(me + 1);
    double sum = 0.0;
    rbc::Reduce(&x, &sum, 1, rbc::Datatype::kFloat64, rbc::ReduceOp::kSum,
                /*root=*/5, comm);
    rbc::Bcast(&sum, 1, rbc::Datatype::kFloat64, /*root=*/5, comm);
    EXPECT_EQ(sum, 36.0);

    // Gatherv with ragged counts, root on the 1-rank node, against the
    // concatenation of every rank's contribution in rank order.
    const int root = 3;
    const int mine = 1 + (me % 3);
    std::vector<double> send(static_cast<std::size_t>(mine));
    for (int i = 0; i < mine; ++i) {
      send[static_cast<std::size_t>(i)] = me * 10.0 + i;
    }
    std::vector<int> counts(static_cast<std::size_t>(p));
    std::vector<int> displs(static_cast<std::size_t>(p), 0);
    std::vector<double> expect;
    int total = 0;
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] = 1 + (r % 3);
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
      for (int i = 0; i < 1 + (r % 3); ++i) expect.push_back(r * 10.0 + i);
    }
    std::vector<double> out(static_cast<std::size_t>(total), -1.0);
    rbc::Gatherv(send.data(), mine, rbc::Datatype::kFloat64, out.data(),
                 counts, displs, root, comm);
    if (me == root) {
      EXPECT_EQ(out, expect);
    }
  });
}

TEST(HierCollectives, SingleNodeDegenerateStillCorrect) {
  mpisim::Runtime::Options o;
  o.num_ranks = 4;
  o.topology = Topology::OfNodeSizes({4});  // one node: all phases intra
  RunRanks(o, [](mpisim::Comm& world, mpisim::Runtime&) {
    rbc::Comm comm;
    rbc::Create_RBC_Comm(world, &comm);
    double x = static_cast<double>(comm.Rank());
    double sum = -1.0;
    rbc::Reduce(&x, &sum, 1, rbc::Datatype::kFloat64, rbc::ReduceOp::kSum, 0,
                comm);
    rbc::Bcast(&sum, 1, rbc::Datatype::kFloat64, 0, comm);
    EXPECT_EQ(sum, 6.0);
  });
}

TEST(RangeAllocator, NodeAffinePlacementAvoidsStraddling) {
  RangeAllocator a(16, RangeAllocator::Policy::kFirstFit,
                   Topology::Uniform(16, 4));
  EXPECT_TRUE(a.NodeAffine());
  const Block small = *a.Allocate(2);  // [0,1]: zero cuts, lowest start
  EXPECT_EQ(small, (Block{0, 1}));
  // Plain first fit would place the 4-wide block at 2, straddling the
  // node boundary at 4; the node-affine score moves it to the node start.
  const Block aligned = *a.Allocate(4);
  EXPECT_EQ(aligned, (Block{4, 7}));
  EXPECT_EQ(a.CrossNodeCuts(aligned), 0);
  EXPECT_EQ(a.CrossNodeCuts(Block{2, 5}), 1);
  EXPECT_EQ(a.CrossNodeCuts(Block{2, 9}), 2);
  // A block wider than a node must still be served (it pays cuts).
  const Block wide = *a.Allocate(8);
  EXPECT_EQ(wide, (Block{8, 15}));
  a.Release(small);
  a.Release(aligned);
  a.Release(wide);
  EXPECT_TRUE(a.AllFree());
  EXPECT_EQ(a.LargestFreeRun(), 16);
}

TEST(RangeAllocator, FlatAndSingleNodeReproducePlainFirstFit) {
  RangeAllocator plain(16);
  RangeAllocator flat(16, RangeAllocator::Policy::kFirstFit,
                      Topology::Flat());
  RangeAllocator one(16, RangeAllocator::Policy::kFirstFit,
                     Topology::OfNodeSizes({16}));
  EXPECT_FALSE(flat.NodeAffine());
  EXPECT_FALSE(one.NodeAffine());
  for (int w : {2, 4, 3, 1}) {
    const auto bp = plain.Allocate(w);
    const auto bf = flat.Allocate(w);
    const auto bo = one.Allocate(w);
    ASSERT_TRUE(bp && bf && bo);
    EXPECT_EQ(*bp, *bf);
    EXPECT_EQ(*bp, *bo);
  }
}

TEST(RangeAllocator, BuddyPlacementUnchangedByTopology) {
  RangeAllocator plain(16, RangeAllocator::Policy::kBuddy);
  RangeAllocator topo_buddy(16, RangeAllocator::Policy::kBuddy,
                            Topology::Uniform(16, 4));
  for (int w : {2, 4, 3, 4}) {
    const auto bp = plain.Allocate(w);
    const auto bt = topo_buddy.Allocate(w);
    ASSERT_TRUE(bp.has_value());
    ASSERT_TRUE(bt.has_value());
    EXPECT_EQ(*bp, *bt) << "width " << w;
  }
}

/// Runs MultilevelSampleSort on 8 ranks under `opts` and returns rank 0's
/// observed level count for branching factor `k`.
int LevelsWith(mpisim::Runtime::Options opts, int k) {
  PerRank<int> levels(8);
  RunRanks(std::move(opts), [&](mpisim::Comm& world, mpisim::Runtime&) {
    auto tr = jsort::MakeMpiTransport(world);
    std::mt19937_64 rng(77 + static_cast<std::uint64_t>(world.Rank()));
    std::vector<double> local(64);
    for (double& v : local) {
      v = static_cast<double>(rng() % 100000);
    }
    jsort::MultilevelConfig cfg;
    cfg.k = k;
    jsort::MultilevelStats st;
    const auto out =
        jsort::MultilevelSampleSort(tr, std::move(local), cfg, &st);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    levels.Set(world.Rank(), st.levels);
  });
  return levels[0];
}

TEST(MultilevelConfig, ZeroBranchingFactorIsTopologyDerived) {
  // Two-level model over 2 nodes: k=0 must behave like k=2 (one group
  // per node).
  mpisim::Runtime::Options two_level;
  two_level.num_ranks = 8;
  two_level.topology = Topology::Uniform(8, 4);
  two_level.cost.intra_alpha = two_level.cost.alpha;
  two_level.cost.inter_alpha = 25.0 * two_level.cost.alpha;
  EXPECT_EQ(LevelsWith(two_level, 0), LevelsWith(two_level, 2));

  // Flat model: k=0 falls back to the default branching factor 4.
  mpisim::Runtime::Options flat;
  flat.num_ranks = 8;
  EXPECT_EQ(LevelsWith(flat, 0), LevelsWith(flat, 4));
}

}  // namespace
