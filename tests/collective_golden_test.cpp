// Golden clocks and traffic of every collective through every entry point.
//
// Each case runs one collective on every rank of one machine and records,
// per rank, the end clock and the traffic counters (messages and bytes
// sent and received, the largest message, and the inter-node counters).
// Ranks start every case at clock 0 with zeroed counters, exactly as in a
// fresh runtime: one runtime per (machine, entry point) runs the cases
// back to back, separated by an out-of-band std::barrier that charges no
// virtual time.
//
//  * Entry points: mpisim blocking and nonblocking, rbc blocking and
//    nonblocking, where each exists. Within one layer both forms must
//    leave identical footprints. On flat machines the mpisim and rbc tree
//    collectives must match each other too: they run one schedule over
//    one binomial tree.
//  * Golden values: one 64-bit hash per collective and layer over all
//    machines -- flat p = 1..17 and 64, and 8 nodes of 8 and ragged nodes
//    {3,1,4,2,6} under bench_topo's two-level model (mpisim keeps the
//    topology-oblivious binomial tree there, rbc takes the node-spread
//    tree) -- and every root of the rooted collectives.
//  * The sparse exchange is held on its counters only: its receivers take
//    messages in wall-clock arrival order. mpisim's nonblocking all-to-all
//    is compared on its counters in the golden sweep, as recorded before
//    its receives were ordered; IalltoallvRepeatsTheBlockingClocks holds
//    its clocks to the blocking schedule's.
#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mpisim/mpisim.hpp"
#include "rbc/rbc.hpp"
#include "topo/topology.hpp"

namespace {

using mpisim::Datatype;
using mpisim::ReduceOp;

/// One rank's footprint of one collective.
struct Footprint {
  double clock = 0.0;
  mpisim::Stats stats;
};

/// Footprints of every case (outer) on every rank (inner).
using Cases = std::vector<std::vector<Footprint>>;

struct Machine {
  std::string name;
  mpisim::Runtime::Options opts;
  bool flat = true;
};

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

std::vector<Machine> Machines() {
  std::vector<Machine> ms;
  for (int p = 1; p <= 17; ++p) {
    ms.push_back({"flat" + std::to_string(p), {.num_ranks = p}, true});
  }
  ms.push_back({"flat64", {.num_ranks = 64}, true});
  ms.push_back({"8x8", TwoLevel({8, 8, 8, 8, 8, 8, 8, 8}), false});
  ms.push_back({"ragged", TwoLevel({3, 1, 4, 2, 6}), false});
  return ms;
}

/// One entry point of a collective: runs case `c` (the root, for rooted
/// collectives) on the calling rank.
using Op = std::function<void(mpisim::Comm&, rbc::Comm&, int c)>;

struct Collective {
  std::string name;
  bool rooted = false;
  /// mpisim and rbc run the same tree schedule: equal on flat machines.
  bool same_schedule = true;
  /// False: held on the traffic counters only.
  bool clocks = true;
  Op mpi_blocking, mpi_nonblocking, rbc_blocking, rbc_nonblocking;
  /// mpisim's nonblocking form is compared on its counters only.
  bool mpi_nonblocking_counters_only = false;
};

Cases RunCases(const Machine& m, int cases, const Op& op) {
  const int p = m.opts.num_ranks;
  Cases out(static_cast<std::size_t>(cases),
            std::vector<Footprint>(static_cast<std::size_t>(p)));
  std::barrier sync(p);
  mpisim::Runtime rt(m.opts);
  rt.Run([&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    mpisim::RankContext& rc = mpisim::Ctx();
    for (int c = 0; c < cases; ++c) {
      // Every rank finished case c - 1 before any rank resets for case c,
      // so no message of case c is ever charged against an old clock.
      rc.clock.Reset();
      rc.stats = mpisim::Stats{};
      op(world, rw, c);
      out[static_cast<std::size_t>(c)][static_cast<std::size_t>(
          world.Rank())] = {rc.clock.Now(), rc.stats};
      sync.arrive_and_wait();
    }
  });
  return out;
}

std::vector<std::uint64_t> Words(const Footprint& f, bool clocks) {
  const mpisim::Stats& s = f.stats;
  std::vector<std::uint64_t> w{s.messages_sent,
                               s.bytes_sent,
                               s.messages_received,
                               s.bytes_received,
                               s.max_message_bytes,
                               s.inter_messages_sent,
                               s.inter_bytes_sent,
                               s.inter_messages_received,
                               s.inter_bytes_received};
  if (clocks) w.push_back(std::bit_cast<std::uint64_t>(f.clock));
  return w;
}

void Mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

/// Asserts two entry points left identical footprints in every case.
void ExpectSame(const Cases& a, const Cases& b, bool clocks,
                const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t c = 0; c < a.size(); ++c) {
    for (std::size_t r = 0; r < a[c].size(); ++r) {
      EXPECT_EQ(Words(a[c][r], clocks), Words(b[c][r], clocks))
          << where << " case " << c << " rank " << r << " (clock "
          << a[c][r].clock << " vs " << b[c][r].clock << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// The collectives. Payloads are small and rank-dependent; the values are
// checked by the collectives' own suites, the footprints here.
// ---------------------------------------------------------------------------

constexpr int kCount = 3;

std::vector<std::int64_t> Block(int rank, int n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = rank * 10 + i;
  return v;
}

/// Gatherv: rank r contributes r % 3 elements (zero-length blocks too).
struct VCounts {
  std::vector<int> counts, displs;
  int total = 0;
  explicit VCounts(int p) {
    for (int r = 0; r < p; ++r) {
      counts.push_back(r % 3);
      displs.push_back(total);
      total += r % 3;
    }
  }
};

/// Alltoallv: rank r sends (r + j) % 3 elements to rank j.
struct A2aCounts {
  std::vector<int> sc, sd, rc, rd;
  int stotal = 0, rtotal = 0;
  A2aCounts(int rank, int p) {
    for (int j = 0; j < p; ++j) {
      sc.push_back((rank + j) % 3);
      sd.push_back(stotal);
      stotal += sc.back();
      rc.push_back((j + rank) % 3);
      rd.push_back(rtotal);
      rtotal += rc.back();
    }
  }
};

template <typename F>
Op Mpi(F f) {
  return [f](mpisim::Comm& w, rbc::Comm&, int c) { f(w, c); };
}

template <typename F>
Op Rbc(F f) {
  return [f](mpisim::Comm&, rbc::Comm& rw, int c) { f(rw, c); };
}

template <typename F>
Op RbcNb(F f) {
  return [f](mpisim::Comm&, rbc::Comm& rw, int c) {
    rbc::Request r;
    f(rw, c, &r);
    rbc::Wait(&r);
  };
}

std::vector<Collective> Collectives() {
  std::vector<Collective> cs;

  {
    Collective c;
    c.name = "Bcast";
    c.rooted = true;
    auto buf = [](int rank, int root) {
      return rank == root ? Block(root, kCount)
                          : std::vector<std::int64_t>(kCount, -1);
    };
    c.mpi_blocking = Mpi([buf](mpisim::Comm& w, int root) {
      auto v = buf(w.Rank(), root);
      mpisim::Bcast(v.data(), kCount, Datatype::kInt64, root, w);
    });
    c.mpi_nonblocking = [buf](mpisim::Comm& w, rbc::Comm&, int root) {
      auto v = buf(w.Rank(), root);
      mpisim::Request r =
          mpisim::Ibcast(v.data(), kCount, Datatype::kInt64, root, w);
      mpisim::Wait(r);
    };
    c.rbc_blocking = Rbc([buf](rbc::Comm& w, int root) {
      auto v = buf(w.Rank(), root);
      rbc::Bcast(v.data(), kCount, Datatype::kInt64, root, w);
    });
    c.rbc_nonblocking = [buf](mpisim::Comm&, rbc::Comm& w, int root) {
      auto v = buf(w.Rank(), root);
      rbc::Request r;
      rbc::Ibcast(v.data(), kCount, Datatype::kInt64, root, w, &r);
      rbc::Wait(&r);
    };
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "Reduce";
    c.rooted = true;
    c.mpi_nonblocking = [](mpisim::Comm& w, rbc::Comm&, int root) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(kCount);
      mpisim::Request r =
          mpisim::Ireduce(in.data(), out.data(), kCount, Datatype::kInt64,
                          ReduceOp::kSum, root, w);
      mpisim::Wait(r);
    };
    c.rbc_blocking = Rbc([](rbc::Comm& w, int root) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(kCount);
      rbc::Reduce(in.data(), out.data(), kCount, Datatype::kInt64,
                  ReduceOp::kSum, root, w);
    });
    c.rbc_nonblocking = [](mpisim::Comm&, rbc::Comm& w, int root) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(kCount);
      rbc::Request r;
      rbc::Ireduce(in.data(), out.data(), kCount, Datatype::kInt64,
                   ReduceOp::kSum, root, w, &r);
      rbc::Wait(&r);
    };
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "Gather";
    c.rooted = true;
    c.mpi_nonblocking = [](mpisim::Comm& w, rbc::Comm&, int root) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(
          static_cast<std::size_t>(kCount * w.Size()));
      mpisim::Request r = mpisim::Igather(in.data(), kCount, Datatype::kInt64,
                                          out.data(), root, w);
      mpisim::Wait(r);
    };
    c.rbc_blocking = Rbc([](rbc::Comm& w, int root) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(
          static_cast<std::size_t>(kCount * w.Size()));
      rbc::Gather(in.data(), kCount, Datatype::kInt64, out.data(), root, w);
    });
    c.rbc_nonblocking = [](mpisim::Comm&, rbc::Comm& w, int root) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(
          static_cast<std::size_t>(kCount * w.Size()));
      rbc::Request r;
      rbc::Igather(in.data(), kCount, Datatype::kInt64, out.data(), root, w,
                   &r);
      rbc::Wait(&r);
    };
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "Gatherv";
    c.rooted = true;
    c.rbc_blocking = Rbc([](rbc::Comm& w, int root) {
      const VCounts v(w.Size());
      auto in = Block(w.Rank(), w.Rank() % 3);
      std::vector<std::int64_t> out(static_cast<std::size_t>(v.total) + 1);
      rbc::Gatherv(in.data(), w.Rank() % 3, Datatype::kInt64, out.data(),
                   v.counts, v.displs, root, w);
    });
    c.rbc_nonblocking = [](mpisim::Comm&, rbc::Comm& w, int root) {
      const VCounts v(w.Size());
      auto in = Block(w.Rank(), w.Rank() % 3);
      std::vector<std::int64_t> out(static_cast<std::size_t>(v.total) + 1);
      rbc::Request r;
      rbc::Igatherv(in.data(), w.Rank() % 3, Datatype::kInt64, out.data(),
                    v.counts, v.displs, root, w, &r);
      rbc::Wait(&r);
    };
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "BcastLarge";
    c.rooted = true;
    constexpr int kLarge = 37;
    c.rbc_blocking = Rbc([](rbc::Comm& w, int root) {
      auto v = Block(w.Rank() == root ? root : -1, kLarge);
      rbc::BcastLarge(v.data(), kLarge, Datatype::kInt64, root, w);
    });
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "Scan";
    c.mpi_nonblocking = [](mpisim::Comm& w, rbc::Comm&, int) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(kCount);
      mpisim::Request r = mpisim::Iscan(in.data(), out.data(), kCount,
                                        Datatype::kInt64, ReduceOp::kSum, w);
      mpisim::Wait(r);
    };
    c.rbc_blocking = Rbc([](rbc::Comm& w, int) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(kCount);
      rbc::Scan(in.data(), out.data(), kCount, Datatype::kInt64,
                ReduceOp::kSum, w);
    });
    c.rbc_nonblocking = [](mpisim::Comm&, rbc::Comm& w, int) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(kCount);
      rbc::Request r;
      rbc::Iscan(in.data(), out.data(), kCount, Datatype::kInt64,
                 ReduceOp::kSum, w, &r);
      rbc::Wait(&r);
    };
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "ScanWithTotal";
    c.rbc_nonblocking = [](mpisim::Comm&, rbc::Comm& w, int) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> incl(kCount), total(kCount);
      rbc::Request r;
      rbc::IscanWithTotal(in.data(), incl.data(), total.data(), kCount,
                          Datatype::kInt64, ReduceOp::kSum, w, &r);
      rbc::Wait(&r);
    };
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "Allreduce";
    c.mpi_blocking = Mpi([](mpisim::Comm& w, int) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(kCount);
      mpisim::Allreduce(in.data(), out.data(), kCount, Datatype::kInt64,
                        ReduceOp::kMax, w);
    });
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "Allgather";
    c.mpi_blocking = Mpi([](mpisim::Comm& w, int) {
      auto in = Block(w.Rank(), kCount);
      std::vector<std::int64_t> out(
          static_cast<std::size_t>(kCount * w.Size()));
      mpisim::Allgather(in.data(), kCount, Datatype::kInt64, out.data(), w);
    });
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "Barrier";
    c.mpi_blocking = Mpi([](mpisim::Comm& w, int) { mpisim::Barrier(w); });
    c.rbc_blocking = Rbc([](rbc::Comm& w, int) { rbc::Barrier(w); });
    c.rbc_nonblocking = RbcNb([](rbc::Comm& w, int, rbc::Request* r) {
      rbc::Ibarrier(w, r);
    });
    cs.push_back(c);
  }
  {
    Collective c;
    c.name = "Alltoallv";
    c.same_schedule = false;
    c.mpi_nonblocking_counters_only = true;
    c.mpi_blocking = Mpi([](mpisim::Comm& w, int) {
      const A2aCounts a(w.Rank(), w.Size());
      auto in = Block(w.Rank(), a.stotal);
      std::vector<std::int64_t> out(static_cast<std::size_t>(a.rtotal) + 1);
      mpisim::Alltoallv(in.data(), a.sc, a.sd, Datatype::kInt64, out.data(),
                        a.rc, a.rd, w);
    });
    c.mpi_nonblocking = [](mpisim::Comm& w, rbc::Comm&, int) {
      const A2aCounts a(w.Rank(), w.Size());
      auto in = Block(w.Rank(), a.stotal);
      std::vector<std::int64_t> out(static_cast<std::size_t>(a.rtotal) + 1);
      mpisim::Request r =
          mpisim::Ialltoallv(in.data(), a.sc, a.sd, Datatype::kInt64,
                             out.data(), a.rc, a.rd, w);
      mpisim::Wait(r);
    };
    c.rbc_blocking = Rbc([](rbc::Comm& w, int) {
      const A2aCounts a(w.Rank(), w.Size());
      auto in = Block(w.Rank(), a.stotal);
      std::vector<std::int64_t> out(static_cast<std::size_t>(a.rtotal) + 1);
      rbc::Alltoallv(in.data(), a.sc, a.sd, Datatype::kInt64, out.data(),
                     a.rc, a.rd, w);
    });
    c.rbc_nonblocking = [](mpisim::Comm&, rbc::Comm& w, int) {
      const A2aCounts a(w.Rank(), w.Size());
      auto in = Block(w.Rank(), a.stotal);
      std::vector<std::int64_t> out(static_cast<std::size_t>(a.rtotal) + 1);
      rbc::Request r;
      rbc::Ialltoallv(in.data(), a.sc, a.sd, Datatype::kInt64, out.data(),
                      a.rc, a.rd, w, &r);
      rbc::Wait(&r);
    };
    cs.push_back(c);
  }
  {
    // mpisim fences on its own binomial barrier, rbc on TreeFor's: equal
    // counters on flat machines only.
    Collective c;
    c.name = "SparseAlltoallv";
    c.clocks = false;
    auto blocks = [](int rank, int p, std::vector<std::int64_t>& data) {
      data = Block(rank, 5);
      std::vector<mpisim::SparseSendBlock> s;
      if (p > 1) s.push_back({(rank + 1) % p, data.data(), 1 + rank % 4});
      if (p > 3) s.push_back({(rank + 3) % p, data.data(), 2});
      return s;
    };
    c.mpi_nonblocking = [blocks](mpisim::Comm& w, rbc::Comm&, int) {
      std::vector<std::int64_t> data;
      auto s = blocks(w.Rank(), w.Size(), data);
      std::vector<mpisim::SparseRecvMessage> got;
      mpisim::Request r =
          mpisim::IsparseAlltoallv(s, Datatype::kInt64, &got, w);
      mpisim::Wait(r);
    };
    c.rbc_blocking = Rbc([blocks](rbc::Comm& w, int) {
      std::vector<std::int64_t> data;
      auto s = blocks(w.Rank(), w.Size(), data);
      std::vector<rbc::SparseRecvMessage> got;
      rbc::SparseAlltoallv(s, Datatype::kInt64, &got, w);
    });
    c.rbc_nonblocking = [blocks](mpisim::Comm&, rbc::Comm& w, int) {
      std::vector<std::int64_t> data;
      auto s = blocks(w.Rank(), w.Size(), data);
      std::vector<rbc::SparseRecvMessage> got;
      rbc::Request r;
      rbc::IsparseAlltoallv(s, Datatype::kInt64, &got, w, &r);
      rbc::Wait(&r);
    };
    cs.push_back(c);
  }
  return cs;
}

/// The golden hashes, recorded before the collective schedules were
/// merged into one core: per collective, the mpisim layer's and the rbc
/// layer's (0 where the layer has no entry point). ScanWithTotal's was
/// re-recorded when its sweep moved from the binomial tree rooted at rank
/// 0 to the in-order binomial tree: the same shape relabelled, so every
/// rank's end clock and counters moved to another rank. A layer whose
/// every entry point of a collective was deleted reads 0 since: mpisim's
/// Gatherv, rbc's Allreduce and Allgather. Where one of a layer's two
/// forms was deleted, the other had been held equal to it, so the hash
/// stands.
struct Golden {
  const char* name;
  std::uint64_t mpi;
  std::uint64_t rbc;
};

constexpr Golden kGolden[] = {
    {"Bcast", 0x6150f8fc04e95043, 0x57ea4883ccf4432b},
    {"Reduce", 0x06c4ad40c0298a31, 0x9308ec840cec210b},
    {"Gather", 0x687d964f8044b096, 0x4b7ad3ac3a47bc8b},
    {"Gatherv", 0, 0xdc7c4f81e98f923c},
    {"BcastLarge", 0, 0x596ada1ac7a97151},
    {"Scan", 0xa10db873f40a8db5, 0xa10db873f40a8db5},
    {"ScanWithTotal", 0, 0x01d9c9000fbdc030},
    {"Allreduce", 0x9cc53c468c87a0da, 0},
    {"Allgather", 0x9b43d23ba4128b06, 0},
    {"Barrier", 0xd1dec8f938d10234, 0xc0a4de79c7a1dd3b},
    {"Alltoallv", 0xd4309b83fe53f69e, 0x83264fe1047c4662},
    {"SparseAlltoallv", 0x40acc2fbabd0dddb, 0xbe0aa280cab4af47},
};

class CollectiveGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(CollectiveGolden, EveryEntryPointLeavesTheRecordedFootprint) {
  const std::string name = GetParam();
  Collective col;
  for (const Collective& c : Collectives()) {
    if (c.name == name) col = c;
  }
  const Golden* golden = nullptr;
  for (const Golden& g : kGolden) {
    if (g.name == name) golden = &g;
  }
  ASSERT_NE(golden, nullptr) << name;

  std::uint64_t hash[2] = {1469598103934665603ull, 1469598103934665603ull};
  for (const Machine& m : Machines()) {
    const int cases = col.rooted ? m.opts.num_ranks : 1;
    Cases layer[2];
    const Op* ops[2][2] = {{&col.mpi_blocking, &col.mpi_nonblocking},
                           {&col.rbc_blocking, &col.rbc_nonblocking}};
    for (int l = 0; l < 2; ++l) {
      const std::string where = name + (l == 0 ? " mpisim " : " rbc ") +
                                m.name;
      bool have = false;
      for (int nb = 0; nb < 2; ++nb) {
        const Op& op = *ops[l][nb];
        if (!op) continue;
        Cases got = RunCases(m, cases, op);
        if (!have) {
          layer[l] = std::move(got);
          have = true;
          continue;
        }
        const bool clocks =
            col.clocks && !(l == 0 && col.mpi_nonblocking_counters_only);
        ExpectSame(layer[l], got, clocks,
                   where + " blocking vs nonblocking");
      }
      for (const auto& ranks : layer[l]) {
        for (const Footprint& f : ranks) {
          for (std::uint64_t w : Words(f, col.clocks)) Mix(hash[l], w);
        }
      }
    }
    if (m.flat && col.same_schedule && !layer[0].empty() &&
        !layer[1].empty()) {
      ExpectSame(layer[0], layer[1], col.clocks,
                 name + " mpisim vs rbc " + m.name);
    }
  }
  const bool has[2] = {col.mpi_blocking || col.mpi_nonblocking,
                       col.rbc_blocking || col.rbc_nonblocking};
  const std::uint64_t want[2] = {golden->mpi, golden->rbc};
  for (int l = 0; l < 2; ++l) {
    const std::uint64_t got = has[l] ? hash[l] : 0;
    EXPECT_EQ(got, want[l]) << name << (l == 0 ? " mpisim" : " rbc")
                            << ": recorded 0x" << std::hex << want[l]
                            << ", now 0x" << got;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, CollectiveGolden,
    ::testing::Values("Bcast", "Reduce", "Gather", "Gatherv", "BcastLarge",
                      "Scan", "ScanWithTotal", "Allreduce", "Allgather",
                      "Barrier", "Alltoallv", "SparseAlltoallv"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// mpisim's nonblocking all-to-all takes its peers one at a time, in the
// blocking schedule's order (rank - 1, rank - 2, ..., segments in order),
// so its clocks are the blocking Alltoallv's and repeat exactly; they used
// to follow whichever peer's message arrived first.
TEST(CollectiveGolden, IalltoallvRepeatsTheBlockingClocks) {
  const Collective a2av = [] {
    for (const Collective& c : Collectives()) {
      if (c.name == "Alltoallv") return c;
    }
    return Collective{};
  }();
  // Segmented: 2 elements per message, so blocks of 2 travel as 1 or 2.
  const Op segmented = [](mpisim::Comm& w, rbc::Comm&, int) {
    const A2aCounts a(w.Rank(), w.Size());
    auto in = Block(w.Rank(), a.stotal);
    std::vector<std::int64_t> out(static_cast<std::size_t>(a.rtotal) + 1);
    mpisim::Request r =
        mpisim::Ialltoallv(in.data(), a.sc, a.sd, Datatype::kInt64,
                           out.data(), a.rc, a.rd, w, /*segment_bytes=*/8);
    mpisim::Wait(r);
  };
  for (const Machine& m : Machines()) {
    if (m.name != "flat13" && m.name != "flat64" && m.name != "8x8") continue;
    const Cases blocking = RunCases(m, 1, a2av.mpi_blocking);
    for (int run = 0; run < 3; ++run) {
      ExpectSame(blocking, RunCases(m, 1, a2av.mpi_nonblocking), true,
                 "Ialltoallv vs Alltoallv " + m.name);
    }
    const Cases first = RunCases(m, 1, segmented);
    for (int run = 0; run < 3; ++run) {
      ExpectSame(first, RunCases(m, 1, segmented), true,
                 "segmented Ialltoallv " + m.name);
    }
  }
}

}  // namespace
