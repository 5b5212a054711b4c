// RBC point-to-point semantics, especially the membership-filtered
// wildcard operations of Section V-C.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "testutil.hpp"

namespace {

using rbc::Datatype;
using testutil::RunRanks;
using testutil::RunRbc;

TEST(RbcP2P, SendRecvInsideRangeUsesRangeRanks) {
  RunRanks(6, [](mpisim::Comm& world) {
    rbc::Comm rw, mid;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 2, 4, &mid);
    if (world.Rank() == 2) {
      const int v = 77;
      rbc::Send(&v, 1, Datatype::kInt32, 2, 5, mid);  // RBC rank 2 = MPI 4
    } else if (world.Rank() == 4) {
      int got = 0;
      rbc::Status st;
      rbc::Recv(&got, 1, Datatype::kInt32, 0, 5, mid, &st);
      EXPECT_EQ(got, 77);
      EXPECT_EQ(st.source, 0);  // RBC rank of the sender
    }
  });
}

TEST(RbcP2P, WildcardRecvTranslatesSource) {
  RunRbc(4, [](rbc::Comm& rw) {
    if (rw.Rank() == 3) {
      double got = 0;
      rbc::Status st;
      rbc::Recv(&got, 1, Datatype::kFloat64, rbc::kAnySource, 2, rw, &st);
      EXPECT_DOUBLE_EQ(got, 1.5);
      EXPECT_EQ(st.source, 1);
    } else if (rw.Rank() == 1) {
      const double v = 1.5;
      rbc::Send(&v, 1, Datatype::kFloat64, 3, 2, rw);
    }
  });
}

TEST(RbcP2P, IprobeFiltersForeignSources) {
  // Rank 2 is in both left {0..2} and right {2..4} ranges. A message from
  // the right range must be invisible to a wildcard probe on the left
  // range, even with identical tags.
  RunRanks(5, [](mpisim::Comm& world) {
    rbc::Comm rw, left, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 2, &left);
    rbc::Split_RBC_Comm(rw, 2, 4, &right);
    constexpr int kTag = 3;
    if (world.Rank() == 4) {
      const int v = 40;
      rbc::Send(&v, 1, Datatype::kInt32, 0, kTag, right);  // to MPI rank 2
    } else if (world.Rank() == 0) {
      const int v = 10;
      rbc::Send(&v, 1, Datatype::kInt32, 2, kTag, left);  // to MPI rank 2
    } else if (world.Rank() == 2) {
      // Drain each message via a wildcard on its own range; the other
      // range's message must never be matched by it. Serve both ranges
      // alternately, as a janus does: a wildcard on one range sees nothing
      // while the other range's message heads the queue (next test), so
      // waiting on `left` alone would spin until the deadlock timeout
      // whenever rank 4's message arrives first. Once a range's probe hits,
      // its message heads the queue and the wildcard receive takes it.
      const auto ready = [&](const rbc::Comm& range) {
        int flag = 0;
        rbc::Iprobe(rbc::kAnySource, kTag, range, &flag);
        return flag != 0;
      };
      bool got_left = false, got_right = false;
      while (!got_left || !got_right) {
        int got = 0;
        rbc::Status st;
        if (!got_left && ready(left)) {
          rbc::Recv(&got, 1, Datatype::kInt32, rbc::kAnySource, kTag, left,
                    &st);
          EXPECT_EQ(got, 10);
          EXPECT_EQ(st.source, 0);
          got_left = true;
        }
        if (!got_right && ready(right)) {
          rbc::Recv(&got, 1, Datatype::kInt32, rbc::kAnySource, kTag, right,
                    &st);
          EXPECT_EQ(got, 40);
          EXPECT_EQ(st.source, 2);  // rank 4 is RBC rank 2 of the right range
          got_right = true;
        }
        std::this_thread::yield();
      }
    }
  });
}

TEST(RbcP2P, IprobeReportsFalseForForeignHeadOfQueue) {
  RunRanks(4, [](mpisim::Comm& world) {
    rbc::Comm rw, left, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 0, 1, &left);   // {0,1}
    rbc::Split_RBC_Comm(rw, 1, 3, &right);  // {1,2,3}
    if (world.Rank() == 3) {
      const int v = 1;
      rbc::Send(&v, 1, Datatype::kInt32, 0, 7, right);  // to MPI rank 1
      // Handshake so the probe below definitely sees the message queued.
      const int token = 0;
      rbc::Send(&token, 1, Datatype::kInt32, 0, 8, right);
    } else if (world.Rank() == 1) {
      int token = 0;
      rbc::Recv(&token, 1, Datatype::kInt32, 2, 8, right);
      // The right-range message is at the head of the queue; probing the
      // left range with the same tag must not see it.
      int flag = 1;
      rbc::Status st;
      rbc::Iprobe(rbc::kAnySource, 7, left, &flag, &st);
      EXPECT_EQ(flag, 0);
      // But it is there for the right range.
      rbc::Iprobe(rbc::kAnySource, 7, right, &flag, &st);
      EXPECT_EQ(flag, 1);
      int got = 0;
      rbc::Recv(&got, 1, Datatype::kInt32, st.source, 7, right);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(RbcP2P, IrecvWildcardFindsMessageOnLaterTest) {
  RunRbc(3, [](rbc::Comm& rw) {
    if (rw.Rank() == 0) {
      int got = -1;
      rbc::Request req;
      rbc::Irecv(&got, 1, Datatype::kInt32, rbc::kAnySource, 9, rw, &req);
      int flag = 0;
      rbc::Test(&req, &flag, nullptr);  // typically not yet complete
      const int token = 0;
      rbc::Send(&token, 1, Datatype::kInt32, 2, 1, rw);
      rbc::Status st;
      rbc::Wait(&req, &st);
      EXPECT_EQ(got, 5);
      EXPECT_EQ(st.source, 2);
    } else if (rw.Rank() == 2) {
      int token = 0;
      rbc::Recv(&token, 1, Datatype::kInt32, 0, 1, rw);
      const int v = 5;
      rbc::Send(&v, 1, Datatype::kInt32, 0, 9, rw);
    }
  });
}

TEST(RbcP2P, IsendCompletesEagerly) {
  RunRbc(2, [](rbc::Comm& rw) {
    if (rw.Rank() == 0) {
      const double v = 3.25;
      rbc::Request req;
      rbc::Isend(&v, 1, Datatype::kFloat64, 1, 0, rw, &req);
      int flag = 0;
      rbc::Test(&req, &flag, nullptr);
      EXPECT_EQ(flag, 1);
    } else {
      double got = 0;
      rbc::Recv(&got, 1, Datatype::kFloat64, 0, 0, rw);
      EXPECT_DOUBLE_EQ(got, 3.25);
    }
  });
}

TEST(RbcP2P, ReservedTagsAreRejected) {
  RunRbc(2, [](rbc::Comm& rw) {
    const int v = 0;
    EXPECT_THROW(
        rbc::Send(&v, 1, Datatype::kInt32, 0, rbc::kReservedTagBase, rw),
        mpisim::UsageError);
    EXPECT_THROW(rbc::Send(&v, 1, Datatype::kInt32, 0, -1, rw),
                 mpisim::UsageError);
  });
}

TEST(RbcP2P, NonMemberOperationsThrow) {
  RunRanks(4, [](mpisim::Comm& world) {
    rbc::Comm rw, right;
    rbc::Create_RBC_Comm(world, &rw);
    rbc::Split_RBC_Comm(rw, 2, 3, &right);
    if (world.Rank() == 0) {
      const int v = 0;
      EXPECT_THROW(rbc::Send(&v, 1, Datatype::kInt32, 0, 0, right),
                   mpisim::UsageError);
    }
  });
}

TEST(RbcP2P, WaitallDrainsManyRequests) {
  RunRbc(4, [](rbc::Comm& rw) {
    const int peer = rw.Rank() ^ 1;
    std::vector<int> out(8, rw.Rank());
    std::vector<int> in(8, -1);
    std::vector<rbc::Request> reqs;
    for (int i = 0; i < 8; ++i) {
      rbc::Request s, r;
      rbc::Isend(&out[static_cast<std::size_t>(i)], 1, Datatype::kInt32,
                 peer, i, rw, &s);
      rbc::Irecv(&in[static_cast<std::size_t>(i)], 1, Datatype::kInt32, peer,
                 i, rw, &r);
      reqs.push_back(s);
      reqs.push_back(r);
    }
    rbc::Waitall(reqs);
    for (int v : in) EXPECT_EQ(v, peer);
  });
}

TEST(RbcP2P, ProbeWildcardSpinsUntilMessage) {
  RunRbc(2, [](rbc::Comm& rw) {
    if (rw.Rank() == 0) {
      rbc::Status st;
      rbc::Probe(rbc::kAnySource, 6, rw, &st);
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.Count(Datatype::kInt32), 3);
      int got[3];
      rbc::Recv(got, 3, Datatype::kInt32, st.source, 6, rw);
      EXPECT_EQ(got[2], 2);
    } else {
      const int v[3] = {0, 1, 2};
      rbc::Send(v, 3, Datatype::kInt32, 0, 6, rw);
    }
  });
}

}  // namespace
