// rbc::SparseAlltoallv / IsparseAlltoallv: sparse destination sets, empty
// senders, all-to-one skew, self blocks, source ordering, back-to-back
// operations on one tag (the second-barrier fence), sub-ranges, ranges
// that share a rank on one tag, and the message budget (no dense counts
// round).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "testutil.hpp"

namespace {

using rbc::Datatype;
using rbc::SparseRecvMessage;
using rbc::SparseSendBlock;
using testutil::RunRbc;

/// Payload rank i sends to rank j in round `r`.
std::vector<double> PayloadOf(int i, int j, int r) {
  return {i * 100.0 + j + r * 1.0e4, i * 100.0 + j + r * 1.0e4 + 0.5};
}

std::vector<double> AsDoubles(const std::vector<std::byte>& bytes) {
  std::vector<double> v(bytes.size() / sizeof(double));
  std::memcpy(v.data(), bytes.data(), v.size() * sizeof(double));
  return v;
}

TEST(RbcSparse, NeighbourRotationDeliversAndOrdersBySource) {
  constexpr int kP = 8;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    // Rank i sends to i+1 and i+2 (mod p): every rank receives from two
    // known sources, but the collective must discover them by probing.
    std::vector<std::vector<double>> payloads;
    std::vector<SparseSendBlock> sends;
    for (int d : {(me + 1) % kP, (me + 2) % kP}) {
      payloads.push_back(PayloadOf(me, d, 0));
      sends.push_back(SparseSendBlock{
          d, payloads.back().data(),
          static_cast<int>(payloads.back().size())});
    }
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    ASSERT_EQ(got.size(), 2u);
    const int s0 = (me + kP - 2) % kP, s1 = (me + kP - 1) % kP;
    const int lo = std::min(s0, s1), hi = std::max(s0, s1);
    EXPECT_EQ(got[0].source, lo);
    EXPECT_EQ(got[1].source, hi);
    EXPECT_EQ(AsDoubles(got[0].bytes), PayloadOf(lo, me, 0));
    EXPECT_EQ(AsDoubles(got[1].bytes), PayloadOf(hi, me, 0));
  });
}

TEST(RbcSparse, AllToOneWithEmptySendersTerminates) {
  constexpr int kP = 9;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    // Odd ranks send to rank 0; even ranks (and 0 itself) send nothing.
    std::vector<double> payload = PayloadOf(me, 0, 0);
    std::vector<SparseSendBlock> sends;
    if (me % 2 == 1) {
      sends.push_back(SparseSendBlock{
          0, payload.data(), static_cast<int>(payload.size())});
    }
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    if (me == 0) {
      ASSERT_EQ(got.size(), 4u);
      for (std::size_t i = 0; i < got.size(); ++i) {
        const int src = 2 * static_cast<int>(i) + 1;
        EXPECT_EQ(got[i].source, src);
        EXPECT_EQ(AsDoubles(got[i].bytes), PayloadOf(src, 0, 0));
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(RbcSparse, SelfBlockDeliversLocally) {
  RunRbc(3, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    std::vector<double> payload = PayloadOf(me, me, 0);
    std::vector<SparseSendBlock> sends{SparseSendBlock{
        me, payload.data(), static_cast<int>(payload.size())}};
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].source, me);
    EXPECT_EQ(AsDoubles(got[0].bytes), payload);
  });
}

TEST(RbcSparse, BackToBackOnOneTagDoesNotLeak) {
  // The second barrier fences round r from round r+1: a fast rank's
  // round-1 sends must never be drained into a slow rank's round-0
  // result, even on the identical tag.
  constexpr int kP = 6;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    for (int round = 0; round < 3; ++round) {
      const int dest = (me + 1 + round) % kP;
      const int src = (me + kP - 1 - round) % kP;
      std::vector<double> payload = PayloadOf(me, dest, round);
      std::vector<SparseSendBlock> sends{SparseSendBlock{
          dest, payload.data(), static_cast<int>(payload.size())}};
      std::vector<SparseRecvMessage> got;
      rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
      ASSERT_EQ(got.size(), 1u) << "round " << round;
      EXPECT_EQ(got[0].source, src);
      EXPECT_EQ(AsDoubles(got[0].bytes), PayloadOf(src, me, round));
    }
  });
}

TEST(RbcSparse, BackToBackSegmentedOnOneTagOrdersTrailingChunks) {
  // Regression: the two-barrier fence must order *trailing payload
  // chunks* across back-to-back segmented exchanges on one tag, not just
  // first chunks -- a fast rank's round-r+1 chunk sequence must never be
  // stitched into a slow rank's round-r payload. Payloads of 24 doubles
  // under a 64-byte segment limit ship as 4 chunks each (56 payload bytes
  // per chunk), so every round has trailing traffic to steal.
  constexpr int kP = 6;
  constexpr int kCount = 24;
  constexpr std::int64_t kSeg = 64;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    for (int round = 0; round < 3; ++round) {
      const int dest = (me + 1 + round) % kP;
      const int src = (me + kP - 1 - round) % kP;
      std::vector<double> payload(kCount);
      for (int i = 0; i < kCount; ++i) {
        payload[static_cast<std::size_t>(i)] =
            me * 1000.0 + round * 100.0 + i;
      }
      std::vector<SparseSendBlock> sends{
          SparseSendBlock{dest, payload.data(), kCount}};
      std::vector<SparseRecvMessage> got;
      rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5, kSeg);
      ASSERT_EQ(got.size(), 1u) << "round " << round;
      EXPECT_EQ(got[0].source, src);
      std::vector<double> expect(kCount);
      for (int i = 0; i < kCount; ++i) {
        expect[static_cast<std::size_t>(i)] =
            src * 1000.0 + round * 100.0 + i;
      }
      EXPECT_EQ(AsDoubles(got[0].bytes), expect) << "round " << round;
    }
  });
}

TEST(RbcSparse, ChunkedPayloadBoundsMessageSizeAndCount) {
  // A skewed all-to-one payload under a segment limit: every wire message
  // stays within the limit and the sender pays exactly SparseChunksOf
  // payload messages (plus barrier tokens).
  constexpr int kP = 5;
  constexpr int kCount = 100;  // 800 payload bytes
  constexpr std::int64_t kSeg = 128;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    std::vector<double> payload(kCount, me * 1.0);
    std::vector<SparseSendBlock> sends;
    if (me != 0) {
      sends.push_back(SparseSendBlock{0, payload.data(), kCount});
    }
    std::vector<SparseRecvMessage> got;
    mpisim::Ctx().stats.max_message_bytes = 0;
    const std::uint64_t before = mpisim::Ctx().stats.messages_sent;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5, kSeg);
    const std::uint64_t sent = mpisim::Ctx().stats.messages_sent - before;
    EXPECT_LE(mpisim::Ctx().stats.max_message_bytes,
              static_cast<std::uint64_t>(kSeg));
    const auto chunks = static_cast<std::uint64_t>(
        mpisim::SparseChunksOf(kCount * 8, kSeg));
    if (me != 0) {
      EXPECT_GE(sent, chunks);  // payload chunks + barrier tokens
      EXPECT_LT(sent, chunks + static_cast<std::uint64_t>(kP));
    }
    if (me == 0) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kP - 1));
      for (int s = 1; s < kP; ++s) {
        EXPECT_EQ(got[static_cast<std::size_t>(s) - 1].source, s);
        EXPECT_EQ(AsDoubles(got[static_cast<std::size_t>(s) - 1].bytes),
                  std::vector<double>(kCount, s * 1.0));
      }
    }
  });
}

TEST(RbcSparse, SubRangeIgnoresNonMembers) {
  constexpr int kP = 7;
  RunRbc(kP, [](rbc::Comm& world) {
    // Ranks 2..5 run a sparse exchange among themselves.
    rbc::Comm sub;
    rbc::Split_RBC_Comm(world, 2, 5, &sub);
    if (sub.Rank() < 0) return;
    const int me = sub.Rank();
    const int p = sub.Size();
    const int dest = (me + 1) % p;
    std::vector<double> payload = PayloadOf(me, dest, 0);
    std::vector<SparseSendBlock> sends{SparseSendBlock{
        dest, payload.data(), static_cast<int>(payload.size())}};
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, sub, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].source, (me + p - 1) % p);
  });
}

TEST(RbcSparse, OverlappingRangesOnOneTagDeliverBehindForeignHead) {
  // Regression: the ranges {0,1,2} and {2,3,4} share rank 2 and run sparse
  // exchanges on the same tag. Handshakes queue rank 3's block for rank 2
  // ahead of rank 0's, and rank 2 finishes the {0,1,2} exchange before it
  // touches the {2,3,4} one. A membership-filtered wildcard probe of
  // {0,1,2} reports "no message" while rank 3's block heads the queue
  // (Section V-C), so the post-barrier drain must probe per source to
  // find rank 0's block behind it. Every member uses the nonblocking form
  // (the collective sanitizer checks that members agree on it).
  constexpr int kTag = 5;
  constexpr int kHandshakeTag = 6;
  RunRbc(5, [](rbc::Comm& world) {
    rbc::Comm left, right;
    rbc::Split_RBC_Comm(world, 0, 2, &left);   // {0,1,2}
    rbc::Split_RBC_Comm(world, 2, 4, &right);  // {2,3,4}
    const int me = world.Rank();
    const std::vector<double> payload = PayloadOf(me, 2, 0);
    const auto start = [&](const rbc::Comm& range, bool to_rank2,
                           std::vector<SparseRecvMessage>* got) {
      std::vector<SparseSendBlock> sends;
      if (to_rank2) {
        sends.push_back(SparseSendBlock{range.FromMpi(2), payload.data(),
                                        static_cast<int>(payload.size())});
      }
      rbc::Request req;
      rbc::IsparseAlltoallv(sends, Datatype::kFloat64, got, range, &req,
                            kTag);
      return req;
    };
    std::vector<SparseRecvMessage> got;
    if (me == 3) {
      rbc::Request req = start(right, true, &got);
      // The block sits in rank 2's queue once the call returns (eager
      // deposit): tell rank 0 it may send.
      const int token = 0;
      rbc::Send(&token, 1, Datatype::kInt32, 0, kHandshakeTag, world);
      rbc::Wait(&req);
    } else if (me == 0) {
      int token = 0;
      rbc::Recv(&token, 1, Datatype::kInt32, 3, kHandshakeTag, world);
      rbc::Request req = start(left, true, &got);
      rbc::Wait(&req);
    } else if (me == 1 || me == 4) {
      rbc::Request req = start(me == 1 ? left : right, false, &got);
      rbc::Wait(&req);
    } else {
      std::vector<SparseRecvMessage> from_left, from_right;
      rbc::Request req = start(left, false, &from_left);
      rbc::Wait(&req);
      req = start(right, false, &from_right);
      rbc::Wait(&req);
      ASSERT_EQ(from_left.size(), 1u);
      EXPECT_EQ(from_left[0].source, left.FromMpi(0));
      EXPECT_EQ(AsDoubles(from_left[0].bytes), PayloadOf(0, 2, 0));
      ASSERT_EQ(from_right.size(), 1u);
      EXPECT_EQ(from_right[0].source, right.FromMpi(3));
      EXPECT_EQ(AsDoubles(from_right[0].bytes), PayloadOf(3, 2, 0));
    }
  });
}

TEST(RbcSparse, NonblockingFormCompletesViaWait) {
  constexpr int kP = 5;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    const int dest = (me + 2) % kP;
    std::vector<double> payload = PayloadOf(me, dest, 0);
    std::vector<SparseSendBlock> sends{SparseSendBlock{
        dest, payload.data(), static_cast<int>(payload.size())}};
    std::vector<SparseRecvMessage> got;
    rbc::Request req;
    rbc::IsparseAlltoallv(sends, Datatype::kFloat64, &got, comm, &req, 5);
    rbc::Wait(&req);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].source, (me + kP - 2) % kP);
    EXPECT_EQ(AsDoubles(got[0].bytes), PayloadOf(got[0].source, me, 0));
  });
}

TEST(RbcSparse, SingleRankSelfOnly) {
  RunRbc(1, [](rbc::Comm& comm) {
    std::vector<double> payload{1.0, 2.0};
    std::vector<SparseSendBlock> sends{SparseSendBlock{0, payload.data(), 2}};
    std::vector<SparseRecvMessage> got;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(AsDoubles(got[0].bytes), payload);
  });
}

TEST(RbcSparse, MessageBudgetHasNoDenseCountsRound) {
  // Sparse pattern on p ranks: each rank sends one payload message. The
  // per-rank send budget must be 1 payload + O(log p) barrier tokens --
  // far below the p-1 messages a dense counts round alone would cost.
  constexpr int kP = 16;
  RunRbc(kP, [](rbc::Comm& comm) {
    const int me = comm.Rank();
    const int dest = (me + 1) % kP;
    std::vector<double> payload = PayloadOf(me, dest, 0);
    std::vector<SparseSendBlock> sends{SparseSendBlock{
        dest, payload.data(), static_cast<int>(payload.size())}};
    std::vector<SparseRecvMessage> got;
    const std::uint64_t before = mpisim::Ctx().stats.messages_sent;
    rbc::SparseAlltoallv(sends, Datatype::kFloat64, &got, comm, 5);
    const std::uint64_t sent = mpisim::Ctx().stats.messages_sent - before;
    // 1 payload + two binomial-tree barriers (a rank sends at most
    // ~log2 p tokens per traversal, and only the root hits that bound).
    EXPECT_LT(sent, static_cast<std::uint64_t>(kP - 1));
  });
}

}  // namespace
