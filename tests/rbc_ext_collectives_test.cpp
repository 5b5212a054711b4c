// The large-input broadcast (an extension beyond Table I): the binomial
// broadcast's result from every size and end root, at lower model time
// for large payloads.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "testutil.hpp"

namespace {

using rbc::Datatype;
using testutil::RunRbc;

class BcastLargeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Sizes, BcastLargeSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8, 16),
                       ::testing::Values(1, 5, 64, 1000, 4097)));

TEST_P(BcastLargeSweep, MatchesBinomialBcast) {
  const auto [p, n] = GetParam();
  RunRbc(p, [n = n](rbc::Comm& rw) {
    for (int root : {0, rw.Size() - 1}) {
      std::vector<double> expect(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        expect[static_cast<std::size_t>(i)] = root * 10000.0 + i;
      }
      std::vector<double> buf(static_cast<std::size_t>(n), -1.0);
      if (rw.Rank() == root) buf = expect;
      rbc::BcastLarge(buf.data(), n, Datatype::kFloat64, root, rw);
      EXPECT_EQ(buf, expect);
    }
  });
}

TEST(BcastLarge, CheaperThanTreeForLargePayloadInModelTime) {
  mpisim::Runtime rt(mpisim::Runtime::Options{.num_ranks = 16});
  double tree_time = 0.0, pipeline_time = 0.0;
  rt.Run([&](mpisim::Comm& world) {
    rbc::Comm rw;
    rbc::Create_RBC_Comm(world, &rw);
    constexpr int kN = 1 << 16;
    std::vector<double> buf(kN, 1.0);
    mpisim::Barrier(world);
    double v0 = mpisim::Ctx().clock.Now();
    rbc::Bcast(buf.data(), kN, Datatype::kFloat64, 0, rw);
    const double tree = mpisim::Ctx().clock.Now() - v0;
    mpisim::Barrier(world);
    v0 = mpisim::Ctx().clock.Now();
    rbc::BcastLarge(buf.data(), kN, Datatype::kFloat64, 0, rw);
    const double pipe = mpisim::Ctx().clock.Now() - v0;
    double tree_max = 0, pipe_max = 0;
    mpisim::Allreduce(&tree, &tree_max, 1, mpisim::Datatype::kFloat64,
                      mpisim::ReduceOp::kMax, world);
    mpisim::Allreduce(&pipe, &pipe_max, 1, mpisim::Datatype::kFloat64,
                      mpisim::ReduceOp::kMax, world);
    if (world.Rank() == 0) {
      tree_time = tree_max;
      pipeline_time = pipe_max;
    }
  });
  EXPECT_LT(pipeline_time, tree_time);
}

}  // namespace
