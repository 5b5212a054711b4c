// The GroupTransport abstraction, parameterized over all three backends
// (RBC, native MPI, Section-VI ICOMM): identical observable semantics,
// different split mechanics.
#include <gtest/gtest.h>

#include <vector>
#include <thread>

#include "sort/transport.hpp"
#include "testutil.hpp"

namespace {

using jsort::Backend;
using jsort::Transport;
using testutil::RunRanks;

std::shared_ptr<Transport> Make(Backend b, mpisim::Comm& world) {
  return jsort::MakeTransport(b, world);
}

TEST(BackendFactory, LabelsRoundTripThroughParse) {
  for (Backend b : {Backend::kRbc, Backend::kMpi, Backend::kIcomm}) {
    Backend parsed;
    ASSERT_TRUE(jsort::ParseBackend(jsort::BackendName(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  Backend out;
  EXPECT_FALSE(jsort::ParseBackend("frobnicate", &out));
}

class TransportSweep : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, TransportSweep,
                         ::testing::Values(Backend::kRbc, Backend::kMpi,
                                           Backend::kIcomm));

TEST_P(TransportSweep, CollectivesWork) {
  const Backend b = GetParam();
  RunRanks(6, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    EXPECT_EQ(tr->Size(), 6);
    EXPECT_EQ(tr->Rank(), world.Rank());

    std::int64_t v = tr->Rank() == 0 ? 42 : -1;
    auto p1 = tr->Ibcast(&v, 1, jsort::Datatype::kInt64, 0, 1);
    while (!p1()) {
    }
    EXPECT_EQ(v, 42);

    const std::int64_t mine = tr->Rank() + 1;
    std::int64_t scan = 0;
    auto p2 = tr->Iscan(&mine, &scan, 1, jsort::Datatype::kInt64,
                        jsort::ReduceOp::kSum, 2);
    while (!p2()) {
    }
    const std::int64_t k = tr->Rank() + 1;
    EXPECT_EQ(scan, k * (k + 1) / 2);

    std::int64_t sum = 0;
    auto p3 = tr->Ireduce(&mine, &sum, 1, jsort::Datatype::kInt64,
                          jsort::ReduceOp::kSum, 0, 3);
    while (!p3()) {
    }
    if (tr->Rank() == 0) {
      EXPECT_EQ(sum, 21);
    }

    std::vector<std::int64_t> all(6, -1);
    auto p4 = tr->Igather(&mine, 1, jsort::Datatype::kInt64, all.data(), 0,
                          4);
    while (!p4()) {
    }
    if (tr->Rank() == 0) {
      for (int r = 0; r < 6; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r + 1);
      }
    }
  });
}

TEST_P(TransportSweep, SplitIsolatesSubgroups) {
  const Backend b = GetParam();
  RunRanks(7, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    const bool low = tr->Rank() < 3;
    auto sub = low ? tr->Split(0, 2) : tr->Split(3, 6);
    EXPECT_EQ(sub->Size(), low ? 3 : 4);
    EXPECT_EQ(sub->Rank(), low ? tr->Rank() : tr->Rank() - 3);
    std::int64_t mine = 1, sum = 0;
    auto poll = sub->Ireduce(&mine, &sum, 1, jsort::Datatype::kInt64,
                             jsort::ReduceOp::kSum, 0, 5);
    while (!poll()) {
    }
    if (sub->Rank() == 0) {
      EXPECT_EQ(sum, low ? 3 : 4);
    }
  });
}

TEST_P(TransportSweep, NestedSplitsCompose) {
  const Backend b = GetParam();
  RunRanks(8, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    // Recursively halve down to singletons.
    while (tr->Size() > 1) {
      const int half = tr->Size() / 2;
      tr = tr->Rank() < half ? tr->Split(0, half - 1)
                             : tr->Split(half, tr->Size() - 1);
    }
    EXPECT_EQ(tr->Size(), 1);
    EXPECT_EQ(tr->Rank(), 0);
  });
}

TEST_P(TransportSweep, PointToPointAndProbe) {
  const Backend b = GetParam();
  RunRanks(4, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    constexpr int kTag = 77;
    if (tr->Rank() == 3) {
      const double v[2] = {1.5, 2.5};
      tr->Send(v, 2, jsort::Datatype::kFloat64, 0, kTag);
    } else if (tr->Rank() == 0) {
      jsort::Status st;
      while (!tr->IprobeAny(kTag, &st)) {
      }
      EXPECT_EQ(st.source, 3);
      EXPECT_EQ(st.Count(jsort::Datatype::kFloat64), 2);
      double got[2] = {0, 0};
      tr->Recv(got, 2, jsort::Datatype::kFloat64, st.source, kTag);
      EXPECT_DOUBLE_EQ(got[1], 2.5);
    }
  });
}

TEST_P(TransportSweep, OverlappingSplitsAtOneRank) {
  // The janus pattern at the transport level: rank 2 is in both [0..2]
  // and [2..4]; probes on each subgroup must only see that subgroup's
  // messages, for every backend.
  const Backend b = GetParam();
  RunRanks(5, [&](mpisim::Comm& world) {
    auto tr = Make(b, world);
    const int r = tr->Rank();
    std::shared_ptr<Transport> left, right;
    // Creation order at the janus: left first (cascaded is fine here).
    if (r <= 2) left = tr->Split(0, 2);
    if (r >= 2) right = tr->Split(2, 4);
    constexpr int kTag = 31;
    if (r == 0) {
      const double v = 10;
      left->Send(&v, 1, jsort::Datatype::kFloat64, 2, kTag);
    }
    if (r == 4) {
      const double v = 40;
      right->Send(&v, 1, jsort::Datatype::kFloat64, 0, kTag);
    }
    if (r == 2) {
      // Drain both, each strictly from its own subgroup. Poll the two
      // alternately, as a janus does: on RBC a wildcard probe of one
      // subgroup reports nothing while the other subgroup's message heads
      // the queue (Section V-C), so waiting on one subgroup alone would
      // spin forever whenever rank 4's message arrives first.
      bool got_left = false, got_right = false;
      while (!got_left || !got_right) {
        jsort::Status st;
        double got = 0;
        if (!got_left && left->IprobeAny(kTag, &st)) {
          EXPECT_EQ(st.source, 0);
          left->Recv(&got, 1, jsort::Datatype::kFloat64, st.source, kTag);
          EXPECT_DOUBLE_EQ(got, 10);
          got_left = true;
        }
        if (!got_right && right->IprobeAny(kTag, &st)) {
          EXPECT_EQ(st.source, 2);
          right->Recv(&got, 1, jsort::Datatype::kFloat64, st.source, kTag);
          EXPECT_DOUBLE_EQ(got, 40);
          got_right = true;
        }
        std::this_thread::yield();
      }
    }
  });
}

}  // namespace
