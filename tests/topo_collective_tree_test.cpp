// RBC's tree collectives on two-level machines: the one tree builder
// (rbc::detail::TreeFor) and the collectives that read it.
//
//  * Shape: from every root, on flat and two-level machines, the tree is
//    a spanning tree whose parent and child links agree across ranks,
//    whose extents and offsets tile the root's order, and -- on a
//    two-level cost model -- crosses the network exactly m - 1 times with
//    inter-node depth 1 when the root's node has m - 1 members and at
//    most ceil(log2 m) always. On a flat model it is the binomial tree,
//    field for field.
//  * Delivery: Bcast, Reduce, Gather, Gatherv and Barrier give
//    byte-identical results on node-spread trees and on a flat runtime.
//  * Determinism: the children of every tree node are received one at a
//    time in list order -- on rbc and on the mpi backend -- so every
//    rank's clock and traffic counters are bit-identical across fresh
//    runtimes.
//  * Cost: on 8 nodes of 8, one Bcast and one Gather end strictly before
//    the mpi backend's binomial Ibcast and Igather, and send exactly 7
//    inter-node messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "mpisim/mpisim.hpp"
#include "rbc/rbc.hpp"
#include "rbc/sm.hpp"
#include "testutil.hpp"
#include "topo/topology.hpp"

namespace {

using rbc::detail::Tree;
using testutil::PerRank;
using topo::Topology;

/// bench_topo's two-level model: intra-node as the flat defaults, 25x
/// startup and 4x per-word cost across nodes.
mpisim::CostModel TwoLevelCost() {
  mpisim::CostModel c;
  c.intra_alpha = c.alpha;
  c.intra_beta = c.beta;
  c.inter_alpha = 25.0 * c.alpha;
  c.inter_beta = 4.0 * c.beta;
  return c;
}

mpisim::Runtime::Options TwoLevel(std::vector<int> node_sizes) {
  mpisim::Runtime::Options o;
  o.topology = Topology::OfNodeSizes(std::move(node_sizes));
  o.num_ranks = o.topology.TotalRanks();
  o.cost = TwoLevelCost();
  return o;
}

mpisim::Runtime::Options Flat(int p) {
  mpisim::Runtime::Options o;
  o.num_ranks = p;
  return o;
}

std::vector<int> Nodes(int count, int size) {
  return std::vector<int>(static_cast<std::size_t>(count), size);
}

struct Machine {
  std::string name;
  mpisim::Runtime::Options opts;
};

/// The two-level machines of the shape and delivery checks.
std::vector<Machine> TwoLevelMachines() {
  return {{"one 8-rank node", TwoLevel({8})},
          {"8x8", TwoLevel(Nodes(8, 8))},
          {"4x4", TwoLevel(Nodes(4, 4))},
          {"ragged 3,1,4,2,6", TwoLevel({3, 1, 4, 2, 6})},
          {"6x2", TwoLevel(Nodes(6, 2))},
          {"32x2", TwoLevel(Nodes(32, 2))},
          {"16 one-rank nodes", TwoLevel(Nodes(16, 1))}};
}

/// Runs `fn(comm)` on every rank of a fresh runtime, with an RBC
/// communicator over the world.
void RunRbc(const mpisim::Runtime::Options& opts,
            const std::function<void(rbc::Comm&)>& fn) {
  testutil::RunRanks(opts, [&](mpisim::Comm& world, mpisim::Runtime&) {
    rbc::Comm comm;
    rbc::Create_RBC_Comm(world, &comm);
    fn(comm);
  });
}

/// trees[root][rank]: every rank's TreeFor(comm, root), for every root.
std::vector<std::vector<Tree>> TreesOf(const mpisim::Runtime::Options& opts) {
  const int p = opts.num_ranks;
  PerRank<std::vector<Tree>> per_rank(p);
  RunRbc(opts, [&](rbc::Comm& comm) {
    std::vector<Tree> mine;
    for (int root = 0; root < p; ++root) {
      mine.push_back(rbc::detail::TreeFor(comm, root));
    }
    per_rank.Set(comm.Rank(), std::move(mine));
  });
  std::vector<std::vector<Tree>> trees(static_cast<std::size_t>(p));
  for (int root = 0; root < p; ++root) {
    for (int r = 0; r < p; ++r) {
      trees[static_cast<std::size_t>(root)].push_back(
          per_rank[r][static_cast<std::size_t>(root)]);
    }
  }
  return trees;
}

/// The generic tree properties: a spanning tree rooted at `root` whose
/// links agree across ranks, whose extents are the subtree sizes, and
/// whose offsets and the root's order lay every subtree out contiguously
/// in pre-order.
void ExpectConsistentTree(const std::vector<Tree>& t, int root,
                          const std::string& where) {
  const int p = static_cast<int>(t.size());
  const auto at = [&](int r) -> const Tree& {
    return t[static_cast<std::size_t>(r)];
  };
  std::vector<int> as_child(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    const Tree& n = at(r);
    ASSERT_EQ(n.children.size(), n.child_extents.size()) << where;
    ASSERT_EQ(n.children.size(), n.child_offsets.size()) << where;
    EXPECT_EQ(n.parent < 0, r == root) << where << " rank " << r;
    int offset = 1;
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      const int c = n.children[i];
      ASSERT_TRUE(c >= 0 && c < p) << where;
      EXPECT_EQ(at(c).parent, r) << where << " child " << c;
      EXPECT_EQ(n.child_extents[i], at(c).Extent()) << where;
      EXPECT_EQ(n.child_offsets[i], offset) << where << " rank " << r;
      offset += n.child_extents[i];
      ++as_child[static_cast<std::size_t>(c)];
    }
    EXPECT_EQ(n.order.empty(), r != root) << where << " rank " << r;
  }
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(as_child[static_cast<std::size_t>(r)], r == root ? 0 : 1)
        << where << " rank " << r;
  }
  // Pre-order from the root, children in list order, must be the root's
  // order; each rank's subtree then starts at its own position and its
  // children sit at their offsets from it.
  std::vector<int> pre;
  const std::function<void(int)> visit = [&](int r) {
    ASSERT_LE(static_cast<int>(pre.size()), p) << where << ": cycle";
    pre.push_back(r);
    for (int c : at(r).children) visit(c);
  };
  visit(root);
  ASSERT_EQ(static_cast<int>(pre.size()), p) << where << ": not spanning";
  EXPECT_EQ(at(root).order, pre) << where;
  EXPECT_EQ(at(root).Extent(), p) << where;
  std::vector<int> pos(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) pos[static_cast<std::size_t>(pre[i])] = i;
  for (int r = 0; r < p; ++r) {
    const Tree& n = at(r);
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      EXPECT_EQ(pos[static_cast<std::size_t>(n.children[i])],
                pos[static_cast<std::size_t>(r)] + n.child_offsets[i])
          << where << " rank " << r;
    }
  }
}

int CeilLog2(int m) {
  int d = 0;
  while ((1 << d) < m) ++d;
  return d;
}

TEST(CollectiveTree, FlatModelIsTheBinomialTreeFieldForField) {
  for (int p = 1; p <= 17; ++p) {
    const auto trees = TreesOf(Flat(p));
    for (int root = 0; root < p; ++root) {
      const std::string where =
          "p=" + std::to_string(p) + " root=" + std::to_string(root);
      const auto& t = trees[static_cast<std::size_t>(root)];
      ExpectConsistentTree(t, root, where);
      for (int r = 0; r < p; ++r) {
        const Tree& n = t[static_cast<std::size_t>(r)];
        const auto b = mpisim::detail::BinomialTreeOf(r, p, root);
        EXPECT_EQ(n.parent, b.parent) << where;
        EXPECT_EQ(n.children, b.children) << where;
        EXPECT_EQ(n.child_extents, b.child_extents) << where;
        for (std::size_t i = 0; i < n.child_offsets.size(); ++i) {
          EXPECT_EQ(n.child_offsets[i], 1 << i) << where;
        }
        if (r == root) {
          for (int pos = 0; pos < p; ++pos) {
            EXPECT_EQ(n.order[static_cast<std::size_t>(pos)],
                      (pos + root) % p)
                << where;
          }
        }
      }
    }
  }
}

TEST(CollectiveTree, NodeSpreadShapeOnTwoLevelMachines) {
  for (const Machine& mc : TwoLevelMachines()) {
    const int p = mc.opts.num_ranks;
    const topo::VnodeMap vn = topo::VnodesOf(
        p, [&](int r) { return mc.opts.topology.NodeOf(r); });
    const int m = vn.Count();
    const auto trees = TreesOf(mc.opts);
    for (int root = 0; root < p; ++root) {
      const std::string where = mc.name + " root=" + std::to_string(root);
      const auto& t = trees[static_cast<std::size_t>(root)];
      ExpectConsistentTree(t, root, where);
      if (HasFatalFailure()) return;  // the walks below need a tree
      if (m == 1) {
        // One vnode: exactly the binomial tree.
        for (int r = 0; r < p; ++r) {
          const auto b = mpisim::detail::BinomialTreeOf(r, p, root);
          EXPECT_EQ(t[static_cast<std::size_t>(r)].children, b.children)
              << where;
        }
        continue;
      }
      const auto inter = [&](int a, int b) {
        return vn.vnode_of[static_cast<std::size_t>(a)] !=
               vn.vnode_of[static_cast<std::size_t>(b)];
      };
      // `steps[r]`: network messages sent in series before rank r has a
      // broadcast's data. A rank sends its network edges after its
      // intra-node children, first round first -- back to front through
      // a list that holds them last round first -- so its i-th listed
      // network child waits for (number of network children - i) of its
      // sends.
      std::vector<int> steps(static_cast<std::size_t>(p), 0);
      std::vector<int> hops(static_cast<std::size_t>(p), 0);
      std::vector<int> queue{root};
      int edges = 0;
      int most_sent = 0;
      for (std::size_t at = 0; at < queue.size(); ++at) {
        const int r = queue[at];
        const auto& kids = t[static_cast<std::size_t>(r)].children;
        const auto net = static_cast<int>(
            std::count_if(kids.begin(), kids.end(),
                          [&](int c) { return inter(r, c); }));
        edges += net;
        most_sent = std::max(most_sent, net);
        int listed = 0;
        for (int c : kids) {
          const auto ci = static_cast<std::size_t>(c);
          steps[ci] = steps[static_cast<std::size_t>(r)];
          hops[ci] = hops[static_cast<std::size_t>(r)];
          if (inter(r, c)) {
            steps[ci] += net - listed++;
            hops[ci] += 1;
          }
          queue.push_back(c);
        }
      }
      const int depth = *std::max_element(hops.begin(), hops.end());
      const int serial = *std::max_element(steps.begin(), steps.end());
      EXPECT_EQ(edges, m - 1) << where;
      EXPECT_LE(depth, CeilLog2(m)) << where;
      EXPECT_LE(serial, CeilLog2(m)) << where;
      const int u = vn.vnode_of[static_cast<std::size_t>(root)];
      const int su = vn.size[static_cast<std::size_t>(u)];
      if (m - 1 <= su) {
        EXPECT_EQ(depth, 1) << where;
        EXPECT_EQ(serial, 1) << where;
        EXPECT_EQ(most_sent, 1) << where;
      }
      // Round 1 is the exchange engine's gateway edge: member i of the
      // root's vnode serves the vnode at distance i + 1.
      for (int i = 0; i < std::min(m - 1, su); ++i) {
        const int w = (u + i + 1) % m;
        const Tree& g = t[static_cast<std::size_t>(vn.GatewayOf(u, w))];
        const int to = vn.GatewayOf(w, u);
        EXPECT_NE(std::find(g.children.begin(), g.children.end(), to),
                  g.children.end())
            << where << " gateway edge to vnode " << w;
      }
    }
  }
}

/// Every rank's results of Bcast, Reduce, Gather and Gatherv (ragged
/// counts) from every root, plus a Reduce + Bcast sum and a Barrier,
/// concatenated as raw bytes.
std::vector<std::vector<std::byte>> CollectiveResults(
    const mpisim::Runtime::Options& opts) {
  const int p = opts.num_ranks;
  PerRank<std::vector<std::byte>> results(p);
  RunRbc(opts, [&](rbc::Comm& comm) {
    const int me = comm.Rank();
    std::vector<std::byte> out;
    const auto keep = [&](const void* data, std::size_t bytes) {
      const auto* b = static_cast<const std::byte*>(data);
      out.insert(out.end(), b, b + bytes);
    };
    std::vector<int> counts(static_cast<std::size_t>(p));
    std::vector<int> displs(static_cast<std::size_t>(p));
    int total = 0;
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] = r % 4;  // zero counts included
      displs[static_cast<std::size_t>(r)] = total;
      total += r % 4;
    }
    for (int root = 0; root < p; ++root) {
      double b[3] = {-1.0, -1.0, -1.0};
      if (me == root) {
        b[0] = 0.5 + root;
        b[1] = -3.25 * root;
        b[2] = 1e300;
      }
      rbc::Bcast(b, 3, rbc::Datatype::kFloat64, root, comm);
      keep(b, sizeof b);

      const std::int64_t x[2] = {me * 7 + root, -me};
      std::int64_t sum[2] = {0, 0};
      rbc::Reduce(x, sum, 2, rbc::Datatype::kInt64, rbc::ReduceOp::kSum, root,
                  comm);
      if (me == root) keep(sum, sizeof sum);

      const double mine[2] = {me + 0.125, root * 100.0 + me};
      std::vector<double> all(static_cast<std::size_t>(2 * p), -2.0);
      rbc::Gather(mine, 2, rbc::Datatype::kFloat64, all.data(), root, comm);
      if (me == root) keep(all.data(), all.size() * sizeof(double));

      std::vector<double> send(static_cast<std::size_t>(me % 4));
      for (std::size_t i = 0; i < send.size(); ++i) {
        send[i] = me * 10.0 + static_cast<double>(i) + root * 0.5;
      }
      std::vector<double> gv(static_cast<std::size_t>(total), -3.0);
      rbc::Gatherv(send.data(), me % 4, rbc::Datatype::kFloat64, gv.data(),
                   counts, displs, root, comm);
      if (me == root) keep(gv.data(), gv.size() * sizeof(double));
    }
    const double v = me + 1.0;
    double s = 0.0;
    rbc::Reduce(&v, &s, 1, rbc::Datatype::kFloat64, rbc::ReduceOp::kSum, 0,
                comm);
    rbc::Bcast(&s, 1, rbc::Datatype::kFloat64, 0, comm);
    keep(&s, sizeof s);
    rbc::Barrier(comm);
    results.Set(me, std::move(out));
  });
  return results.Values();
}

TEST(CollectiveTree, NodeSpreadDeliversWhatAFlatRuntimeDelivers) {
  for (const Machine& mc : TwoLevelMachines()) {
    const auto spread = CollectiveResults(mc.opts);
    const auto flat = CollectiveResults(Flat(mc.opts.num_ranks));
    for (int r = 0; r < mc.opts.num_ranks; ++r) {
      EXPECT_EQ(spread[static_cast<std::size_t>(r)],
                flat[static_cast<std::size_t>(r)])
          << mc.name << " rank " << r;
    }
  }
}

/// One rank's clock after each collective, and its final counters.
struct Footprint {
  std::vector<double> clocks;
  mpisim::Stats stats;

  bool operator==(const Footprint& o) const {
    return clocks == o.clocks &&
           std::memcmp(&stats, &o.stats, sizeof stats) == 0;
  }
};

/// One Gather, Gatherv, Reduce and Bcast (8 doubles per rank, root 0) in
/// a fresh runtime on rbc, then Gather, Reduce and Bcast on the mpi
/// backend's binomial trees.
std::vector<Footprint> FootprintsOf(const mpisim::Runtime::Options& opts) {
  const int p = opts.num_ranks;
  PerRank<Footprint> fp(p);
  testutil::RunRanks(opts, [&](mpisim::Comm& world, mpisim::Runtime&) {
    rbc::Comm comm;
    rbc::Create_RBC_Comm(world, &comm);
    Footprint f;
    const auto clock = [&] { f.clocks.push_back(mpisim::Ctx().clock.Now()); };
    std::vector<double> mine(8, comm.Rank() + 0.5);
    std::vector<double> all(static_cast<std::size_t>(8 * p));
    rbc::Gather(mine.data(), 8, rbc::Datatype::kFloat64, all.data(), 0, comm);
    clock();
    const std::vector<int> counts(static_cast<std::size_t>(p), 8);
    std::vector<int> displs(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) displs[static_cast<std::size_t>(r)] = 8 * r;
    rbc::Gatherv(mine.data(), 8, rbc::Datatype::kFloat64, all.data(), counts,
                 displs, 0, comm);
    clock();
    std::vector<double> sum(8);
    rbc::Reduce(mine.data(), sum.data(), 8, rbc::Datatype::kFloat64,
                rbc::ReduceOp::kSum, 0, comm);
    clock();
    rbc::Bcast(sum.data(), 8, rbc::Datatype::kFloat64, 0, comm);
    clock();
    const auto dt = mpisim::Datatype::kFloat64;
    const auto wait = [&](mpisim::Request req) {
      mpisim::Wait(req);
      clock();
    };
    wait(mpisim::Igather(mine.data(), 8, dt, all.data(), 0, world));
    wait(mpisim::Ireduce(mine.data(), sum.data(), 8, dt,
                         mpisim::ReduceOp::kSum, 0, world));
    wait(mpisim::Ibcast(sum.data(), 8, dt, 0, world));
    f.stats = mpisim::Ctx().stats;
    fp.Set(comm.Rank(), std::move(f));
  });
  return fp.Values();
}

TEST(CollectiveTree, ClocksAndCountersRepeatAcrossFreshRuntimes) {
  for (const Machine& mc :
       {Machine{"8x8", TwoLevel(Nodes(8, 8))}, Machine{"flat", Flat(64)}}) {
    const auto first = FootprintsOf(mc.opts);
    for (int run = 1; run < 20; ++run) {
      const auto again = FootprintsOf(mc.opts);
      for (std::size_t r = 0; r < first.size(); ++r) {
        ASSERT_TRUE(again[r] == first[r])
            << mc.name << ": run " << run << " rank " << r
            << " differs from run 0";
      }
    }
  }
}

/// Model end time and inter-node messages of one collective: the max
/// clock over ranks and the summed inter-node sends after `op` alone.
struct Cost {
  double end = 0.0;
  std::uint64_t inter_messages = 0;
};

Cost CostOf(mpisim::Runtime& rt, const std::function<void(mpisim::Comm&)>& op) {
  rt.ResetClocksAndStats();
  rt.Run(op);
  return Cost{rt.MaxVirtualTime(), rt.TotalStats().inter_messages_sent};
}

TEST(CollectiveTree, BcastAndGatherBeatTheBinomialTreeOnEightNodes) {
  mpisim::Runtime rt(TwoLevel(Nodes(8, 8)));
  const int p = 64;
  const auto rbc_comm = [](mpisim::Comm& world) {
    rbc::Comm comm;
    rbc::Create_RBC_Comm(world, &comm);
    return comm;
  };
  const Cost bcast = CostOf(rt, [&](mpisim::Comm& world) {
    std::vector<double> buf(8, world.Rank() == 0 ? 1.0 : 0.0);
    rbc::Bcast(buf.data(), 8, rbc::Datatype::kFloat64, 0, rbc_comm(world));
  });
  const Cost ibcast = CostOf(rt, [&](mpisim::Comm& world) {
    std::vector<double> buf(8, world.Rank() == 0 ? 1.0 : 0.0);
    mpisim::Request req =
        mpisim::Ibcast(buf.data(), 8, mpisim::Datatype::kFloat64, 0, world);
    mpisim::Wait(req);
  });
  const Cost gather = CostOf(rt, [&](mpisim::Comm& world) {
    std::vector<double> mine(8, world.Rank()), all(8 * p);
    rbc::Gather(mine.data(), 8, rbc::Datatype::kFloat64, all.data(), 0,
                rbc_comm(world));
  });
  const Cost igather = CostOf(rt, [&](mpisim::Comm& world) {
    std::vector<double> mine(8, world.Rank()), all(8 * p);
    mpisim::Request req = mpisim::Igather(
        mine.data(), 8, mpisim::Datatype::kFloat64, all.data(), 0, world);
    mpisim::Wait(req);
  });
  EXPECT_LT(bcast.end, ibcast.end);
  EXPECT_LT(gather.end, igather.end);
  EXPECT_EQ(bcast.inter_messages, 7u);
  EXPECT_EQ(gather.inter_messages, 7u);
}

}  // namespace
