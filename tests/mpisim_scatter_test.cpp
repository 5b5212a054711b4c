// Scatter / Sendrecv of the substrate.
#include <gtest/gtest.h>

#include <vector>

#include "testutil.hpp"

namespace {

using mpisim::Comm;
using mpisim::Datatype;
using testutil::RunRanks;

class ScatterSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ProcessCounts, ScatterSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST_P(ScatterSweep, ScatterDistributesBlocksFromEveryRoot) {
  const int p = GetParam();
  RunRanks(p, [p](Comm& world) {
    for (int root = 0; root < std::min(p, 3); ++root) {
      std::vector<std::int64_t> send;
      if (world.Rank() == root) {
        for (int r = 0; r < p; ++r) {
          send.push_back(r * 10);
          send.push_back(r * 10 + 1);
        }
      }
      std::int64_t recv[2] = {-1, -1};
      mpisim::Scatter(send.data(), 2, Datatype::kInt64, recv, root, world);
      EXPECT_EQ(recv[0], world.Rank() * 10);
      EXPECT_EQ(recv[1], world.Rank() * 10 + 1);
    }
  });
}

TEST(Sendrecv, PairwiseExchangeDoesNotDeadlock) {
  RunRanks(6, [](Comm& world) {
    const int peer = world.Rank() ^ 1;
    const std::int64_t out = world.Rank() * 11;
    std::int64_t in = -1;
    mpisim::Status st;
    mpisim::Sendrecv(&out, 1, Datatype::kInt64, peer, 4, &in, 1,
                     Datatype::kInt64, peer, 4, world, &st);
    EXPECT_EQ(in, peer * 11);
    EXPECT_EQ(st.source, peer);
  });
}

TEST(Sendrecv, RingShiftMovesDataAround) {
  constexpr int kP = 5;
  RunRanks(kP, [](Comm& world) {
    const int right = (world.Rank() + 1) % kP;
    const int left = (world.Rank() - 1 + kP) % kP;
    std::int64_t token = world.Rank();
    // kP shifts bring every token back home.
    for (int i = 0; i < kP; ++i) {
      std::int64_t incoming = -1;
      mpisim::Sendrecv(&token, 1, Datatype::kInt64, right, 9, &incoming, 1,
                       Datatype::kInt64, left, 9, world);
      token = incoming;
    }
    EXPECT_EQ(token, world.Rank());
  });
}

}  // namespace
