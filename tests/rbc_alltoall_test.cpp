// rbc::Alltoallv / Ialltoallv: uniform and uneven counts (including
// zero-count ranks), randomized equivalence against mpisim::Alltoallv,
// sub-ranges, overlapping sub-ranges, strided ranges, and nonblocking
// completion via rbc::Test / rbc::Wait.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "testutil.hpp"

namespace {

using rbc::Datatype;
using testutil::RunRanks;
using testutil::RunRbc;

/// Deterministic uneven count of elements rank i sends to rank j; every
/// rank can evaluate any entry, so recvcounts need no extra exchange.
int CountOf(std::uint64_t seed, int i, int j) {
  std::mt19937_64 g(seed ^ (static_cast<std::uint64_t>(i) << 20) ^
                    (static_cast<std::uint64_t>(j) + 1));
  return static_cast<int>(g() % 5);  // 0..4 elements, zeros included
}

/// Element m of the block rank i sends to rank j.
double ElemOf(int i, int j, int m) {
  return i * 1.0e6 + j * 1.0e3 + m;
}

struct VectorPattern {
  std::vector<int> sendcounts, sdispls, recvcounts, rdispls;
  std::vector<double> send;
  int recv_total = 0;
};

/// Builds the uneven all-to-all pattern of rank `me` in a group of p.
VectorPattern BuildPattern(std::uint64_t seed, int me, int p) {
  VectorPattern pat;
  pat.sendcounts.resize(static_cast<std::size_t>(p));
  pat.sdispls.resize(static_cast<std::size_t>(p));
  pat.recvcounts.resize(static_cast<std::size_t>(p));
  pat.rdispls.resize(static_cast<std::size_t>(p));
  int s = 0, r = 0;
  for (int j = 0; j < p; ++j) {
    pat.sendcounts[static_cast<std::size_t>(j)] = CountOf(seed, me, j);
    pat.sdispls[static_cast<std::size_t>(j)] = s;
    s += pat.sendcounts[static_cast<std::size_t>(j)];
    pat.recvcounts[static_cast<std::size_t>(j)] = CountOf(seed, j, me);
    pat.rdispls[static_cast<std::size_t>(j)] = r;
    r += pat.recvcounts[static_cast<std::size_t>(j)];
  }
  pat.recv_total = r;
  pat.send.resize(static_cast<std::size_t>(s));
  for (int j = 0; j < p; ++j) {
    for (int m = 0; m < pat.sendcounts[static_cast<std::size_t>(j)]; ++m) {
      pat.send[static_cast<std::size_t>(
          pat.sdispls[static_cast<std::size_t>(j)] + m)] = ElemOf(me, j, m);
    }
  }
  return pat;
}

void ExpectReceived(const VectorPattern& pat, const std::vector<double>& got,
                    int me, int p) {
  for (int j = 0; j < p; ++j) {
    for (int m = 0; m < pat.recvcounts[static_cast<std::size_t>(j)]; ++m) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(
                           pat.rdispls[static_cast<std::size_t>(j)] + m)],
                       ElemOf(j, me, m))
          << "from rank " << j << " element " << m;
    }
  }
}

class AlltoallSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ProcessCounts, AlltoallSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

TEST_P(AlltoallSweep, UniformBlocksLandByRank) {
  // The uniform all-to-all: Alltoallv with two elements to every rank.
  const int p = GetParam();
  RunRbc(p, [p](rbc::Comm& rw) {
    const int me = rw.Rank();
    std::vector<double> send(static_cast<std::size_t>(2 * p));
    std::vector<int> counts(static_cast<std::size_t>(p), 2), displs;
    for (int j = 0; j < p; ++j) {
      send[static_cast<std::size_t>(2 * j)] = ElemOf(me, j, 0);
      send[static_cast<std::size_t>(2 * j + 1)] = ElemOf(me, j, 1);
      displs.push_back(2 * j);
    }
    std::vector<double> recv(static_cast<std::size_t>(2 * p), -1.0);
    rbc::Alltoallv(send.data(), counts, displs, Datatype::kFloat64,
                   recv.data(), counts, displs, rw);
    for (int j = 0; j < p; ++j) {
      EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(2 * j)],
                       ElemOf(j, me, 0));
      EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(2 * j + 1)],
                       ElemOf(j, me, 1));
    }
  });
}

// Acceptance: rbc::Alltoallv produces identical output to mpisim::Alltoallv
// on randomized uneven counts across comm sizes 1..16.
TEST(Alltoallv, MatchesMpisimOnRandomizedUnevenCounts) {
  for (int p = 1; p <= 16; ++p) {
    RunRanks(p, [p](mpisim::Comm& world) {
      const std::uint64_t seed = 0xA110A11u + static_cast<std::uint64_t>(p);
      const int me = world.Rank();
      const VectorPattern pat = BuildPattern(seed, me, p);

      std::vector<double> via_mpi(static_cast<std::size_t>(pat.recv_total),
                                  -1.0);
      mpisim::Alltoallv(pat.send.data(), pat.sendcounts, pat.sdispls,
                        mpisim::Datatype::kFloat64, via_mpi.data(),
                        pat.recvcounts, pat.rdispls, world);

      rbc::Comm rw;
      rbc::Create_RBC_Comm(world, &rw);
      std::vector<double> via_rbc(static_cast<std::size_t>(pat.recv_total),
                                  -2.0);
      rbc::Alltoallv(pat.send.data(), pat.sendcounts, pat.sdispls,
                     Datatype::kFloat64, via_rbc.data(), pat.recvcounts,
                     pat.rdispls, rw);

      EXPECT_EQ(via_rbc, via_mpi) << "p=" << p << " rank=" << me;
      ExpectReceived(pat, via_rbc, me, p);
    });
  }
}

TEST(Alltoallv, ZeroCountRanksParticipate) {
  // Odd ranks contribute nothing and receive nothing; even ranks exchange
  // one element with every even rank.
  RunRbc(7, [](rbc::Comm& rw) {
    const int p = rw.Size();
    const int me = rw.Rank();
    const bool active = me % 2 == 0;
    std::vector<int> sendcounts(static_cast<std::size_t>(p), 0),
        sdispls(static_cast<std::size_t>(p), 0),
        recvcounts(static_cast<std::size_t>(p), 0),
        rdispls(static_cast<std::size_t>(p), 0);
    std::vector<double> send, recv;
    int s = 0;
    for (int j = 0; j < p; ++j) {
      const bool pair_active = active && j % 2 == 0;
      sendcounts[static_cast<std::size_t>(j)] = pair_active ? 1 : 0;
      recvcounts[static_cast<std::size_t>(j)] = pair_active ? 1 : 0;
      sdispls[static_cast<std::size_t>(j)] = s;
      rdispls[static_cast<std::size_t>(j)] = s;
      if (pair_active) {
        send.push_back(ElemOf(me, j, 0));
        ++s;
      }
    }
    recv.assign(static_cast<std::size_t>(s), -1.0);
    rbc::Alltoallv(send.data(), sendcounts, sdispls, Datatype::kFloat64,
                   recv.data(), recvcounts, rdispls, rw);
    int idx = 0;
    for (int j = 0; j < p; ++j) {
      if (recvcounts[static_cast<std::size_t>(j)] == 0) continue;
      EXPECT_DOUBLE_EQ(recv[static_cast<std::size_t>(idx++)],
                       ElemOf(j, me, 0));
    }
  });
}

TEST(Alltoallv, WorksOnSubRange) {
  RunRanks(8, [](mpisim::Comm& world) {
    rbc::Comm rw, mid;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 2, 6, &mid);
    if (mid.Rank() < 0) return;
    const int p = mid.Size();
    const int me = mid.Rank();
    const VectorPattern pat = BuildPattern(0xBEEF, me, p);
    std::vector<double> recv(static_cast<std::size_t>(pat.recv_total), -1.0);
    rbc::Alltoallv(pat.send.data(), pat.sendcounts, pat.sdispls,
                   Datatype::kFloat64, recv.data(), pat.recvcounts,
                   pat.rdispls, mid);
    ExpectReceived(pat, recv, me, p);
  });
}

TEST(Alltoallv, StridedRangeUsesEveryOtherRank) {
  RunRanks(8, [](mpisim::Comm& world) {
    rbc::Comm rw, even;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm_Strided(rw, 0, 7, 2, &even);
    if (even.Rank() < 0) return;
    const int p = even.Size();
    const int me = even.Rank();
    const VectorPattern pat = BuildPattern(0x57D1, me, p);
    std::vector<double> recv(static_cast<std::size_t>(pat.recv_total), -1.0);
    rbc::Alltoallv(pat.send.data(), pat.sendcounts, pat.sdispls,
                   Datatype::kFloat64, recv.data(), pat.recvcounts,
                   pat.rdispls, even);
    ExpectReceived(pat, recv, me, p);
  });
}

TEST(Ialltoallv, OverlappingSubRangesRunSimultaneously) {
  // Two sub-ranges overlapping in exactly one process (rank 3) run their
  // exchanges at the same time on distinct default tags; the overlap rank
  // progresses both requests together.
  RunRanks(7, [](mpisim::Comm& world) {
    rbc::Comm rw, left, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 3, &left);
    rbc::Split_RBC_Comm(rw, 3, 6, &right);

    struct Op {
      VectorPattern pat;
      std::vector<double> recv;
      rbc::Request req;
      int me = -1;
      int p = 0;
    };
    Op lop, rop;
    if (left.Rank() >= 0) {
      lop.me = left.Rank();
      lop.p = left.Size();
      lop.pat = BuildPattern(0x1EF7, lop.me, lop.p);
      lop.recv.assign(static_cast<std::size_t>(lop.pat.recv_total), -1.0);
      rbc::Ialltoallv(lop.pat.send.data(), lop.pat.sendcounts,
                      lop.pat.sdispls, Datatype::kFloat64, lop.recv.data(),
                      lop.pat.recvcounts, lop.pat.rdispls, left, &lop.req,
                      rbc::RBC_IALLTOALLV_TAG);
    }
    if (right.Rank() >= 0) {
      rop.me = right.Rank();
      rop.p = right.Size();
      rop.pat = BuildPattern(0x2167, rop.me, rop.p);
      rop.recv.assign(static_cast<std::size_t>(rop.pat.recv_total), -1.0);
      rbc::Ialltoallv(rop.pat.send.data(), rop.pat.sendcounts,
                      rop.pat.sdispls, Datatype::kFloat64, rop.recv.data(),
                      rop.pat.recvcounts, rop.pat.rdispls, right, &rop.req,
                      rbc::RBC_IALLTOALLV_TAG + 1);
    }
    rbc::Wait(&lop.req);
    rbc::Wait(&rop.req);
    if (lop.me >= 0) ExpectReceived(lop.pat, lop.recv, lop.me, lop.p);
    if (rop.me >= 0) ExpectReceived(rop.pat, rop.recv, rop.me, rop.p);
  });
}

TEST(Ialltoallv, CompletesViaTestPolling) {
  RunRbc(5, [](rbc::Comm& rw) {
    const int p = rw.Size();
    const int me = rw.Rank();
    const VectorPattern pat = BuildPattern(0x7E57, me, p);
    std::vector<double> recv(static_cast<std::size_t>(pat.recv_total), -1.0);
    rbc::Request req;
    rbc::Ialltoallv(pat.send.data(), pat.sendcounts, pat.sdispls,
                    Datatype::kFloat64, recv.data(), pat.recvcounts,
                    pat.rdispls, rw, &req);
    int flag = 0;
    while (flag == 0) {
      rbc::Test(&req, &flag);
    }
    // Completion is sticky.
    rbc::Test(&req, &flag);
    EXPECT_EQ(flag, 1);
    ExpectReceived(pat, recv, me, p);
  });
}

TEST(Alltoallv, RejectsWrongArraySizes) {
  RunRbc(3, [](rbc::Comm& rw) {
    std::vector<int> short_counts(2, 0), displs(3, 0), counts(3, 0);
    double buf = 0;
    EXPECT_THROW(rbc::Alltoallv(&buf, short_counts, displs,
                                Datatype::kFloat64, &buf, counts, displs,
                                rw),
                 mpisim::UsageError);
  });
}

}  // namespace
