// rbc::IscanWithTotal: the inclusive prefix and the total from one
// up-sweep/down-sweep over the in-order binomial tree, whose subtrees are
// runs of ranks and whose end ranks are leaves.
//
//  * Tree: for p = 1..300 the in-order tree has the binomial tree's shape
//    (children by increasing extent), every subtree is a run that starts
//    at its child offset, and for p >= 3 the root lies inside the range
//    and ranks 0 and p-1 are leaves.
//  * Values: every rank's prefix and total equal a sequential left fold,
//    for int64 sums, maxima and minima and integer-valued float64 sums, on
//    flat machines of 1..17, 33 and 64 ranks, on 8 nodes of 8 and on
//    ragged nodes {3,1,4,2,6}; with count 0 and 3, and with the send
//    buffer aliasing the prefix buffer.
//  * Tags: back-to-back calls on one tag, and two overlapping ranges that
//    share one rank (JQuick's janus process) in flight at once on
//    distinct tags, where the shared rank sends one message per range.
//  * Traffic and time: exactly 2(p-1) messages, of which ranks 0 and p-1
//    send and receive one each for p >= 3; on flat machines of 1..130
//    ranks the end clock is the binomial sweep's, ceil(log2 p) times one
//    up and one down message; every rank's end clock and counters repeat
//    bit for bit across fresh runtimes and agree across the rbc, mpi and
//    icomm transports; the collective ends before an Iscan followed by an
//    Ibcast of the last rank's prefix.
//  * Riders: a kMaxPairFirst pair rider and an int64 sum rider return the
//    sequential fold on every rank, beside scans of 0 and 3 elements; a
//    rider adds 2(p-1) times its bytes and no message; clocks and counters
//    with a rider repeat and agree across transports like those without;
//    every transport, and a decorator that leaves the call to the base
//    class default, returns the same prefixes and totals, and the same
//    rider totals from a call of 0 scan elements.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "forwarding_transport.hpp"
#include "mpisim/mpisim.hpp"
#include "mpisim/schedule.hpp"
#include "rbc/rbc.hpp"
#include "sort/transport.hpp"
#include "testutil.hpp"
#include "topo/topology.hpp"

namespace {

using rbc::Datatype;
using rbc::ReduceOp;
using testutil::PerRank;

/// bench_topo's two-level model: intra-node as the flat defaults, 25x
/// startup and 4x per-word cost across nodes.
mpisim::Runtime::Options TwoLevel(std::vector<int> node_sizes) {
  mpisim::Runtime::Options o;
  o.topology = topo::Topology::OfNodeSizes(std::move(node_sizes));
  o.num_ranks = o.topology.TotalRanks();
  o.cost.intra_alpha = o.cost.alpha;
  o.cost.intra_beta = o.cost.beta;
  o.cost.inter_alpha = 25.0 * o.cost.alpha;
  o.cost.inter_beta = 4.0 * o.cost.beta;
  return o;
}

mpisim::Runtime::Options Flat(int p) {
  mpisim::Runtime::Options o;
  o.num_ranks = p;
  return o;
}

struct Machine {
  std::string name;
  mpisim::Runtime::Options opts;
};

Machine FlatMachine(int p) { return {"flat " + std::to_string(p), Flat(p)}; }
Machine EightByEight() { return {"8x8", TwoLevel(std::vector<int>(8, 8))}; }
Machine Ragged() { return {"ragged 3,1,4,2,6", TwoLevel({3, 1, 4, 2, 6})}; }

std::vector<Machine> Machines() {
  std::vector<Machine> m;
  for (int p = 1; p <= 17; ++p) m.push_back(FlatMachine(p));
  m.push_back(FlatMachine(33));
  m.push_back(FlatMachine(64));
  m.push_back(EightByEight());
  m.push_back(Ragged());
  return m;
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

/// Rank r's j-th input: small integers of both signs, so that sums, maxima
/// and minima all depend on more than one rank.
std::int64_t Input(int r, int j, int salt) {
  return (r * 37 + j * 11 + salt * 5) % 23 - 11;
}

std::int64_t Fold(ReduceOp op, std::int64_t acc, std::int64_t v) {
  switch (op) {
    case ReduceOp::kMax: return std::max(acc, v);
    case ReduceOp::kMin: return std::min(acc, v);
    default: return acc + v;
  }
}

/// The sequential left fold of Input(0..last, j, salt).
std::int64_t LeftFold(ReduceOp op, int last, int j, int salt) {
  std::int64_t acc = Input(0, j, salt);
  for (int q = 1; q <= last; ++q) acc = Fold(op, acc, Input(q, j, salt));
  return acc;
}

/// Starts IscanWithTotal on `comm` and waits for it.
void ScanWithTotal(const void* send, void* incl, void* total, int count,
                   Datatype dt, ReduceOp op, const rbc::Comm& comm,
                   int tag = rbc::RBC_ISCAN_WITH_TOTAL_TAG) {
  rbc::Request req;
  rbc::IscanWithTotal(send, incl, total, count, dt, op, comm, &req, tag);
  rbc::Wait(&req);
}

/// One call of element type T: Input(me, 0..count-1, salt) in a 3-slot
/// buffer (the prefix buffer itself when `alias`), checked against the
/// left fold; the slots past `count` must stay untouched.
template <typename T>
void CheckCase(const rbc::Comm& comm, ReduceOp op, Datatype dt, int count,
               bool alias, int salt, const std::string& label) {
  const int me = comm.Rank();
  std::vector<T> send(3, T{-99}), incl(3, T{-99}), total(3, T{-99});
  std::vector<T>& in = alias ? incl : send;
  for (int j = 0; j < count; ++j) {
    in[static_cast<std::size_t>(j)] = static_cast<T>(Input(me, j, salt));
  }
  ScanWithTotal(in.data(), incl.data(), total.data(), count, dt, op, comm);
  for (int j = 0; j < 3; ++j) {
    const auto at = static_cast<std::size_t>(j);
    const T want_incl =
        j < count ? static_cast<T>(LeftFold(op, me, j, salt)) : T{-99};
    const T want_total =
        j < count ? static_cast<T>(LeftFold(op, comm.Size() - 1, j, salt))
                  : T{-99};
    EXPECT_EQ(incl[at], want_incl) << label << " element " << j;
    EXPECT_EQ(total[at], want_total) << label << " element " << j;
  }
}

/// One call per (operator, datatype, count, aliasing) case. Every call
/// shares the default tag, so each one also follows its predecessor back
/// to back.
void CheckValues(const rbc::Comm& comm, const std::string& where) {
  struct Case {
    ReduceOp op;
    bool float64;  // integer-valued doubles: exact in any fold order
  };
  int salt = 0;  // new inputs for every call
  for (const Case c :
       {Case{ReduceOp::kSum, false}, Case{ReduceOp::kMax, false},
        Case{ReduceOp::kMin, false}, Case{ReduceOp::kSum, true}}) {
    for (const int count : {0, 3}) {
      for (const bool alias : {false, true}) {
        const std::string label =
            where + (c.float64 ? " float64" : " int64") + " op " +
            std::to_string(static_cast<int>(c.op)) + " count " +
            std::to_string(count) + (alias ? " aliased" : "") + " rank " +
            std::to_string(comm.Rank());
        if (c.float64) {
          CheckCase<double>(comm, c.op, Datatype::kFloat64, count, alias,
                            ++salt, label);
        } else {
          CheckCase<std::int64_t>(comm, c.op, Datatype::kInt64, count, alias,
                                  ++salt, label);
        }
      }
    }
  }
}

TEST(ScanWithTotal, ValuesMatchASequentialLeftFold) {
  for (const Machine& mc : Machines()) {
    RunRbc(mc.opts, [&](rbc::Comm& comm) { CheckValues(comm, mc.name); });
  }
}

/// Rank r's j-th pair rider element: keys repeat across ranks, so ties
/// must go to the lower rank as in a left fold; values name the rank.
mpisim::PairDD PairInput(int r, int j, int salt) {
  return {static_cast<double>((r * 37 + j * 11 + salt * 5) % 23),
          static_cast<double>(r * 1000 + j)};
}

/// One call per (scan count, rider kind): the scan's prefix and total and
/// the rider's total against their sequential left folds. The scan is of
/// int32, so with 3 elements the rider sits at a 12-byte offset in every
/// message. The pair rider shares its send and total buffer, as JQuick's
/// does.
void CheckRiders(const rbc::Comm& comm, const std::string& where) {
  constexpr int kRider = 4;
  const int me = comm.Rank();
  const int last = comm.Size() - 1;
  int salt = 50;
  for (const int count : {0, 3}) {
    for (const bool pairs : {true, false}) {
      ++salt;
      const std::string label = where + " count " + std::to_string(count) +
                                (pairs ? " pair" : " sum") + " rider rank " +
                                std::to_string(me);
      std::vector<std::int32_t> send(3), incl(3, -99), total(3, -99);
      for (int j = 0; j < count; ++j) {
        send[static_cast<std::size_t>(j)] =
            static_cast<std::int32_t>(Input(me, j, salt));
      }
      std::vector<mpisim::PairDD> cands(kRider);
      std::vector<std::int64_t> sums(kRider), sum_total(kRider, -99);
      for (int j = 0; j < kRider; ++j) {
        cands[static_cast<std::size_t>(j)] = PairInput(me, j, salt);
        sums[static_cast<std::size_t>(j)] = Input(me, j + 3, salt);
      }
      const rbc::ScanRider rider =
          pairs ? rbc::ScanRider{cands.data(), cands.data(), kRider,
                                 Datatype::kPairDoubleDouble,
                                 ReduceOp::kMaxPairFirst}
                : rbc::ScanRider{sums.data(), sum_total.data(), kRider,
                                 Datatype::kInt64, ReduceOp::kSum};
      rbc::Request req;
      rbc::IscanWithTotal(send.data(), incl.data(), total.data(), count,
                          Datatype::kInt32, ReduceOp::kSum, comm, &req,
                          rbc::RBC_ISCAN_WITH_TOTAL_TAG, rider);
      rbc::Wait(&req);
      for (int j = 0; j < 3; ++j) {
        const auto at = static_cast<std::size_t>(j);
        EXPECT_EQ(incl[at], j < count ? LeftFold(ReduceOp::kSum, me, j, salt)
                                      : -99)
            << label << " element " << j;
        EXPECT_EQ(total[at],
                  j < count ? LeftFold(ReduceOp::kSum, last, j, salt) : -99)
            << label << " element " << j;
      }
      for (int j = 0; j < kRider; ++j) {
        const auto at = static_cast<std::size_t>(j);
        if (pairs) {
          mpisim::PairDD want = PairInput(0, j, salt);
          for (int q = 1; q <= last; ++q) {
            const mpisim::PairDD c = PairInput(q, j, salt);
            if (c.first > want.first) want = c;
          }
          EXPECT_EQ(cands[at].first, want.first) << label << " rider " << j;
          EXPECT_EQ(cands[at].second, want.second)
              << label << " rider " << j;
        } else {
          EXPECT_EQ(sum_total[at], LeftFold(ReduceOp::kSum, last, j + 3, salt))
              << label << " rider " << j;
        }
      }
    }
  }
}

TEST(ScanWithTotal, RidersMatchASequentialFold) {
  for (const Machine& mc : Machines()) {
    RunRbc(mc.opts, [&](rbc::Comm& comm) { CheckRiders(comm, mc.name); });
  }
}

TEST(ScanWithTotal, BackToBackCallsOnOneTag) {
  for (const Machine& mc : {FlatMachine(17),
                            Ragged()}) {
    RunRbc(mc.opts, [&](rbc::Comm& comm) {
      const int p = comm.Size();
      const std::int64_t k = comm.Rank() + 1;
      for (int call = 0; call < 8; ++call) {
        // A rank that finishes early starts the next call while its peers
        // still run this one; only per-edge FIFO order keeps them apart.
        const std::int64_t mine = k * (call + 1);
        std::int64_t incl = 0, total = 0;
        ScanWithTotal(&mine, &incl, &total, 1, Datatype::kInt64,
                      ReduceOp::kSum, comm, rbc::RBC_ISCAN_WITH_TOTAL_TAG);
        EXPECT_EQ(incl, k * (k + 1) / 2 * (call + 1)) << mc.name;
        EXPECT_EQ(total, std::int64_t{p} * (p + 1) / 2 * (call + 1))
            << mc.name;
      }
    });
  }
}

TEST(ScanWithTotal, OverlappingRangesShareARankOnDistinctTags) {
  // Ranges [0, s] and [s, 8] of a 9-rank world: rank s, like a janus
  // process, runs both collectives at once -- as the last rank of one
  // range and the first of the other. An end rank is a leaf of a sweep
  // over three or more ranks, and the root of a two-rank range has one
  // child, so s sends and receives one message per range.
  constexpr int kP = 9;
  for (const int s : {1, 4, 7}) {
    testutil::RunRanks(Flat(kP), [&](mpisim::Comm& world, mpisim::Runtime&) {
      rbc::Comm all, left, right;
      rbc::Create_RBC_Comm(world, &all);
      const int me = world.Rank();
      std::vector<rbc::Request> reqs;
      const std::int64_t mine = me + 1;
      std::int64_t out[2][2] = {{0, 0}, {0, 0}};  // [range][incl, total]
      if (me <= s) {
        rbc::Split_RBC_Comm(all, 0, s, &left);
        reqs.emplace_back();
        rbc::IscanWithTotal(&mine, &out[0][0], &out[0][1], 1,
                            Datatype::kInt64, ReduceOp::kSum, left,
                            &reqs.back(), rbc::kReservedTagBase + 100);
      }
      if (me >= s) {
        rbc::Split_RBC_Comm(all, s, kP - 1, &right);
        reqs.emplace_back();
        rbc::IscanWithTotal(&mine, &out[1][0], &out[1][1], 1,
                            Datatype::kInt64, ReduceOp::kSum, right,
                            &reqs.back(), rbc::kReservedTagBase + 101);
      }
      rbc::Waitall(reqs);
      const auto sum = [](std::int64_t a, std::int64_t b) {
        return (a + b) * (b - a + 1) / 2;  // a + (a+1) + ... + b
      };
      const std::string where =
          "s=" + std::to_string(s) + " rank " + std::to_string(me);
      if (me <= s) {
        EXPECT_EQ(out[0][0], sum(1, me + 1)) << where;
        EXPECT_EQ(out[0][1], sum(1, s + 1)) << where;
      }
      if (me >= s) {
        EXPECT_EQ(out[1][0], sum(s + 1, me + 1)) << where;
        EXPECT_EQ(out[1][1], sum(s + 1, kP)) << where;
      }
      if (me == s) {
        // Splits are free, so these are the two sweeps' messages; each
        // range of two or more ranks takes at least one of each.
        EXPECT_EQ(mpisim::Ctx().stats.messages_sent, 2u) << where;
        EXPECT_EQ(mpisim::Ctx().stats.messages_received, 2u) << where;
      }
    });
  }
}

TEST(ScanWithTotal, SendsTwoMessagesPerNonRootRank) {
  for (const Machine& mc : Machines()) {
    const int p = mc.opts.num_ranks;
    mpisim::Runtime rt(mc.opts);
    rt.Run([](mpisim::Comm& world) {
      rbc::Comm comm;
      rbc::Create_RBC_Comm(world, &comm);
      const std::int64_t mine[2] = {world.Rank(), 1};
      std::int64_t incl[2], total[2];
      ScanWithTotal(mine, incl, total, 2, Datatype::kInt64, ReduceOp::kSum,
                    comm);
    });
    const mpisim::Stats s = rt.TotalStats();
    const auto edges = static_cast<std::uint64_t>(p - 1);
    EXPECT_EQ(s.messages_sent, 2 * edges) << mc.name;
    EXPECT_EQ(s.messages_received, 2 * edges) << mc.name;
    // Up: one subtree sum (2 int64); down: [prefix, total] (4 int64).
    EXPECT_EQ(s.bytes_sent, edges * 6 * sizeof(std::int64_t)) << mc.name;
  }
}

TEST(ScanWithTotal, ARiderAddsBytesButNoMessages) {
  constexpr int kRider = 5;
  for (const Machine& mc : Machines()) {
    const int p = mc.opts.num_ranks;
    const auto traffic = [&](bool with_rider) {
      mpisim::Runtime rt(mc.opts);
      rt.Run([&](mpisim::Comm& world) {
        rbc::Comm comm;
        rbc::Create_RBC_Comm(world, &comm);
        const std::int64_t mine[2] = {world.Rank(), 1};
        std::int64_t incl[2], total[2];
        std::vector<mpisim::PairDD> cands(
            kRider, mpisim::PairDD{1.0 * world.Rank(), 0.0});
        rbc::ScanRider rider;
        if (with_rider) {
          rider = {cands.data(), cands.data(), kRider,
                   Datatype::kPairDoubleDouble, ReduceOp::kMaxPairFirst};
        }
        rbc::Request req;
        rbc::IscanWithTotal(mine, incl, total, 2, Datatype::kInt64,
                            ReduceOp::kSum, comm, &req,
                            rbc::RBC_ISCAN_WITH_TOTAL_TAG, rider);
        rbc::Wait(&req);
      });
      return rt.TotalStats();
    };
    const mpisim::Stats bare = traffic(false);
    const mpisim::Stats ridden = traffic(true);
    const auto edges = static_cast<std::uint64_t>(p - 1);
    EXPECT_EQ(ridden.messages_sent, 2 * edges) << mc.name;
    EXPECT_EQ(ridden.messages_received, 2 * edges) << mc.name;
    EXPECT_EQ(ridden.bytes_sent,
              bare.bytes_sent + 2 * edges * kRider * sizeof(mpisim::PairDD))
        << mc.name;
  }
}

/// One rank's clock after the collective, and its counters.
struct Footprint {
  double clock = 0.0;
  mpisim::Stats stats;

  bool operator==(const Footprint& o) const {
    return clock == o.clock &&
           std::memcmp(&stats, &o.stats, sizeof stats) == 0;
  }
};

/// Every rank's footprint of one IscanWithTotal over the (small, large)
/// count pair JQuick passes, started through `backend`'s transport; with
/// `rider`, beside 16 pivot candidates per side, as JQuick draws them.
std::vector<Footprint> FootprintsOf(const mpisim::Runtime::Options& opts,
                                    jsort::Backend backend, bool rider) {
  PerRank<Footprint> fp(opts.num_ranks);
  testutil::RunRanks(opts, [&](mpisim::Comm& world, mpisim::Runtime&) {
    auto tr = jsort::MakeTransport(backend, world);
    const std::int64_t counts[2] = {world.Rank() % 5, 7 - world.Rank() % 3};
    std::int64_t incl[2], total[2];
    std::vector<mpisim::PairDD> cands(32);
    for (std::size_t j = 0; j < cands.size(); ++j) {
      cands[j] = PairInput(world.Rank(), static_cast<int>(j), 1);
    }
    jsort::ScanRider r;
    if (rider) {
      r = {cands.data(), cands.data(), static_cast<int>(cands.size()),
           Datatype::kPairDoubleDouble, ReduceOp::kMaxPairFirst};
    }
    mpisim::WaitUntil(tr->IscanWithTotal(counts, incl, total, 2,
                                         Datatype::kInt64, ReduceOp::kSum,
                                         /*tag=*/3, r),
                      "IscanWithTotal");
    fp.Set(world.Rank(), {mpisim::Ctx().clock.Now(), mpisim::Ctx().stats});
  });
  return fp.Values();
}

TEST(ScanWithTotal, ClocksAndCountersRepeatAcrossFreshRuntimes) {
  for (const bool rider : {false, true}) {
    for (const Machine& mc : {FlatMachine(64), EightByEight(), Ragged()}) {
      const auto first = FootprintsOf(mc.opts, jsort::Backend::kRbc, rider);
      for (int run = 1; run < 20; ++run) {
        const auto again =
            FootprintsOf(mc.opts, jsort::Backend::kRbc, rider);
        for (std::size_t r = 0; r < first.size(); ++r) {
          ASSERT_TRUE(again[r] == first[r])
              << mc.name << (rider ? " rider" : "") << ": run " << run
              << " rank " << r << " differs from run 0";
        }
      }
    }
  }
}

TEST(ScanWithTotal, TransportsShareOneSchedule) {
  for (const bool rider : {false, true}) {
    for (const Machine& mc :
         {FlatMachine(13), FlatMachine(64), EightByEight()}) {
      const auto rbc_fp = FootprintsOf(mc.opts, jsort::Backend::kRbc, rider);
      for (const jsort::Backend b :
           {jsort::Backend::kMpi, jsort::Backend::kIcomm}) {
        const auto fp = FootprintsOf(mc.opts, b, rider);
        for (std::size_t r = 0; r < rbc_fp.size(); ++r) {
          EXPECT_TRUE(fp[r] == rbc_fp[r])
              << mc.name << (rider ? " rider " : " ")
              << jsort::BackendName(b) << " rank " << r << ": clock "
              << fp[r].clock << " vs rbc " << rbc_fp[r].clock;
        }
      }
    }
  }
}

TEST(ScanWithTotal, TheTreeIsTheBinomialTreeLaidOutInRuns) {
  using mpisim::detail::Tree;
  for (int p = 1; p <= 300; ++p) {
    std::vector<Tree> in, bin;
    for (int r = 0; r < p; ++r) {
      in.push_back(mpisim::detail::InOrderBinomialTreeOf(r, p));
      bin.push_back(mpisim::detail::BinomialTreeOf(r, p, 0));
    }
    const std::string at = "p " + std::to_string(p);
    // Walks in-order rank x beside binomial rank y, whose children are
    // taken by increasing extent (ties in mask order): the shapes must
    // match, every subtree must be a run with its start at the child's
    // offset, and the run [lo, hi] is returned.
    std::function<std::pair<int, int>(int, int)> walk = [&](int x, int y) {
      const Tree& t = in[static_cast<std::size_t>(x)];
      const Tree& b = bin[static_cast<std::size_t>(y)];
      std::vector<std::size_t> by(b.children.size());
      for (std::size_t i = 0; i < by.size(); ++i) by[i] = i;
      std::stable_sort(by.begin(), by.end(), [&](std::size_t i, std::size_t j) {
        return b.child_extents[i] < b.child_extents[j];
      });
      std::vector<std::pair<int, int>> runs = {{x, x}};
      EXPECT_EQ(t.children.size(), by.size()) << at << " rank " << x;
      for (std::size_t i = 0; i < std::min(t.children.size(), by.size());
           ++i) {
        const int c = t.children[i];
        EXPECT_EQ(in[static_cast<std::size_t>(c)].parent, x) << at;
        EXPECT_EQ(t.child_extents[i], b.child_extents[by[i]]) << at;
        runs.push_back(walk(c, b.children[by[i]]));
        EXPECT_EQ(runs.back().second - runs.back().first + 1,
                  t.child_extents[i])
            << at << " rank " << x << " child " << c;
      }
      std::sort(runs.begin(), runs.end());
      for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].first, runs[i - 1].second + 1)
            << at << ": the subtree of rank " << x << " is not a run";
      }
      const int lo = runs.front().first;
      for (std::size_t i = 0; i < t.children.size(); ++i) {
        const int c = t.children[i];
        const int c_lo = c > x ? c : c - t.child_extents[i] + 1;
        EXPECT_EQ(t.child_offsets[i], c_lo - lo) << at << " rank " << x;
      }
      return std::pair{lo, runs.back().second};
    };
    const auto root = std::find_if(in.begin(), in.end(),
                                   [](const Tree& t) { return t.parent < 0; });
    ASSERT_NE(root, in.end()) << at;
    const int r = static_cast<int>(root - in.begin());
    EXPECT_EQ(walk(r, 0), (std::pair{0, p - 1})) << at;
    if (p >= 3) {
      EXPECT_NE(r, 0) << at;
      EXPECT_NE(r, p - 1) << at;
      EXPECT_TRUE(in.front().children.empty()) << at;
      EXPECT_TRUE(in.back().children.empty()) << at;
    }
  }
}

TEST(ScanWithTotal, EndRanksAreLeaves) {
  std::vector<Machine> ms;
  for (int p = 3; p <= 17; ++p) ms.push_back(FlatMachine(p));
  ms.insert(ms.end(),
            {FlatMachine(33), FlatMachine(64), EightByEight(), Ragged()});
  for (const bool rider : {false, true}) {
    for (const Machine& mc : ms) {
      const auto fp = FootprintsOf(mc.opts, jsort::Backend::kRbc, rider);
      const int p = static_cast<int>(fp.size());
      std::uint64_t sent = 0;
      for (const Footprint& f : fp) sent += f.stats.messages_sent;
      EXPECT_EQ(sent, 2u * static_cast<std::uint64_t>(p - 1)) << mc.name;
      for (const int r : {0, p - 1}) {
        // A leaf: its subtree sum up, its prefix and totals down.
        EXPECT_EQ(fp[static_cast<std::size_t>(r)].stats.messages_sent, 1u)
            << mc.name << (rider ? " rider" : "") << " rank " << r;
        EXPECT_EQ(fp[static_cast<std::size_t>(r)].stats.messages_received,
                  1u)
            << mc.name << (rider ? " rider" : "") << " rank " << r;
      }
    }
  }
}

TEST(ScanWithTotal, EndClockMatchesTheBinomial) {
  // The in-order tree is the binomial tree rooted at rank 0 relabelled:
  // the root takes its ceil(log2 p) children's subtree sums one after
  // another, then the down sweep's longest chain is as many sends, so on a
  // flat machine the sweep ends where the binomial one did.
  const mpisim::CostModel cost;
  for (const bool rider : {false, true}) {
    const double words = rider ? 64.0 : 0.0;  // 32 pairs of doubles
    const double up = cost.alpha + (2.0 + words) * cost.beta;
    const double down = cost.alpha + (4.0 + words) * cost.beta;
    for (int p = 1; p <= 130; ++p) {
      double end = 0.0;
      for (const Footprint& f :
           FootprintsOf(Flat(p), jsort::Backend::kRbc, rider)) {
        end = std::max(end, f.clock);
      }
      const int depth = std::bit_width(static_cast<unsigned>(p - 1));
      EXPECT_DOUBLE_EQ(end, depth * (up + down))
          << "p " << p << (rider ? " rider" : "");
    }
  }
}

/// A decorator that forwards everything but IscanWithTotal, which it
/// leaves to the base class default, as a decorator without an override
/// of that call does.
class DefaultScanTransport final : public testutil::ForwardingTransport {
 public:
  using ForwardingTransport::ForwardingTransport;

  jsort::Poll IscanWithTotal(const void* send, void* incl, void* total,
                             int count, Datatype dt, ReduceOp op, int tag,
                             const jsort::ScanRider& rider = {}) override {
    return Transport::IscanWithTotal(send, incl, total, count, dt, op, tag,
                                     rider);
  }

 protected:
  std::shared_ptr<jsort::Transport> Wrap(
      std::shared_ptr<jsort::Transport> child) override {
    return std::make_shared<DefaultScanTransport>(std::move(child));
  }
};

TEST(ScanWithTotal, TransportsComputeThePrefixAndTotal) {
  for (const jsort::Backend b :
       {jsort::Backend::kRbc, jsort::Backend::kMpi, jsort::Backend::kIcomm}) {
    // The backend's schedule, then the base class's default (Iscan +
    // Ibcast, and Ireduce + Ibcast of a rider) run by a decorator that
    // does not forward the call. Count 0 with a rider is JQuick's root
    // pivot sweep.
    for (const bool fallback : {false, true}) {
      testutil::RunRanks(Flat(11), [&](mpisim::Comm& world,
                                       mpisim::Runtime&) {
        auto tr = jsort::MakeTransport(b, world);
        if (fallback) tr = std::make_shared<DefaultScanTransport>(tr);
        if (world.Rank() < 2 || world.Rank() > 9) return;
        // A sub-group, as JQuick's levels use them.
        auto sub = tr->Split(2, 9);
        const std::int64_t k = sub->Rank() + 1;
        const std::int64_t mine[2] = {k, 2 * k};
        for (const auto& [count, rider] :
             {std::pair{2, false}, std::pair{2, true}, std::pair{0, false},
              std::pair{0, true}}) {
          const std::string where = std::string(jsort::BackendName(b)) +
                                    (fallback ? " default" : "") +
                                    " count " + std::to_string(count) +
                                    (rider ? " rider" : "");
          std::int64_t incl[2] = {0, 0}, total[2] = {0, 0};
          mpisim::PairDD cands[2] = {PairInput(sub->Rank(), 0, 3),
                                     PairInput(sub->Rank(), 1, 3)};
          jsort::ScanRider r;
          if (rider) {
            r = {cands, cands, 2, Datatype::kPairDoubleDouble,
                 ReduceOp::kMaxPairFirst};
          }
          mpisim::WaitUntil(sub->IscanWithTotal(mine, incl, total, count,
                                                Datatype::kInt64,
                                                ReduceOp::kSum, /*tag=*/5, r),
                            "IscanWithTotal");
          const std::int64_t want_incl[2] = {k * (k + 1) / 2, k * (k + 1)};
          const std::int64_t want_total[2] = {36, 72};
          for (int i = 0; i < 2; ++i) {
            EXPECT_EQ(incl[i], count == 2 ? want_incl[i] : 0) << where;
            EXPECT_EQ(total[i], count == 2 ? want_total[i] : 0) << where;
          }
          for (int j = 0; rider && j < 2; ++j) {
            mpisim::PairDD want = PairInput(0, j, 3);
            for (int q = 1; q < sub->Size(); ++q) {
              const mpisim::PairDD c = PairInput(q, j, 3);
              if (c.first > want.first) want = c;
            }
            EXPECT_EQ(cands[j].first, want.first) << where << " rider " << j;
            EXPECT_EQ(cands[j].second, want.second)
                << where << " rider " << j;
          }
        }
      });
    }
  }
}

/// Model end time (the max clock over ranks) of JQuick's prefix sums and
/// totals on a fresh clock: the rbc transport's up/down sweep, or the base
/// class's Iscan + Ibcast of the last prefix that JQuick ran before it.
double EndOf(mpisim::Runtime& rt, bool chain) {
  rt.ResetClocksAndStats();
  rt.Run([&](mpisim::Comm& world) {
    auto tr = jsort::MakeTransport(jsort::Backend::kRbc, world);
    const std::int64_t counts[2] = {world.Rank(), 1};
    std::int64_t incl[2], total[2];
    mpisim::WaitUntil(
        chain ? tr->Transport::IscanWithTotal(counts, incl, total, 2,
                                              Datatype::kInt64,
                                              ReduceOp::kSum, /*tag=*/0)
              : tr->IscanWithTotal(counts, incl, total, 2, Datatype::kInt64,
                                   ReduceOp::kSum, /*tag=*/0),
        "IscanWithTotal");
  });
  return rt.MaxVirtualTime();
}

TEST(ScanWithTotal, EndsBeforeIscanThenIbcastOfTheLastPrefix) {
  // Measured: 120.7 against 170.7 model-us on 64 flat ranks, 1,561.8
  // against 2,341.8 on 8 nodes of 8.
  for (const Machine& mc : {FlatMachine(64), EightByEight()}) {
    mpisim::Runtime rt(mc.opts);
    EXPECT_LT(EndOf(rt, /*chain=*/false), EndOf(rt, /*chain=*/true))
        << mc.name;
  }
}

}  // namespace
