// Exact model-time properties of the virtual alpha-beta clock: the
// deterministic clock lets us assert closed-form costs of the
// communication patterns, which is what makes the figure benchmarks
// trustworthy.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "testutil.hpp"

namespace {

using mpisim::Comm;
using mpisim::Datatype;
using mpisim::ReduceOp;

/// Runs `op` once on p ranks and returns max-over-ranks vtime delta.
double ModelTimeOf(int p, mpisim::Runtime::Options opts,
                   const std::function<void(Comm&)>& op) {
  opts.num_ranks = p;
  mpisim::Runtime rt(opts);
  double result = 0.0;
  rt.Run([&](Comm& world) {
    mpisim::Barrier(world);
    const double v0 = mpisim::Ctx().clock.Now();
    op(world);
    const double delta = mpisim::Ctx().clock.Now() - v0;
    double max_delta = 0.0;
    mpisim::Allreduce(&delta, &max_delta, 1, Datatype::kFloat64,
                      ReduceOp::kMax, world);
    if (world.Rank() == 0) result = max_delta;
  });
  return result;
}

TEST(ClockProperty, PointToPointCostsAlphaPlusBetaL) {
  mpisim::Runtime::Options opts;
  opts.cost.alpha = 7.0;
  opts.cost.beta = 0.5;
  const double t = ModelTimeOf(2, opts, [](Comm& world) {
    std::vector<double> v(16, 1.0);
    if (world.Rank() == 0) {
      mpisim::Send(v.data(), 16, Datatype::kFloat64, 1, 0, world);
    } else {
      mpisim::Recv(v.data(), 16, Datatype::kFloat64, 0, 0, world);
    }
  });
  EXPECT_DOUBLE_EQ(t, 7.0 + 16 * 0.5);
}

TEST(ClockProperty, BinomialBcastCostsLogPRounds) {
  // For p = 2^k and single-element payloads, the critical path of the
  // binomial broadcast is exactly k serialized messages... plus the
  // root's own injections, which serialize on the single port. The root
  // sends k messages back-to-back; the last leaf receives after at most
  // k message times along its path. Critical path = k * (alpha + beta).
  mpisim::Runtime::Options opts;
  opts.cost.alpha = 10.0;
  opts.cost.beta = 0.0;  // isolate the alpha term
  for (int k = 1; k <= 5; ++k) {
    const int p = 1 << k;
    const double t = ModelTimeOf(p, opts, [](Comm& world) {
      double v = 1.0;
      mpisim::Bcast(&v, 1, Datatype::kFloat64, 0, world);
    });
    // Single-ported sends serialize at the root: the tree's critical path
    // is exactly k rounds of alpha each.
    EXPECT_DOUBLE_EQ(t, 10.0 * k) << "p=" << p;
  }
}

TEST(ClockProperty, ScanCostsCeilLogPRounds) {
  mpisim::Runtime::Options opts;
  opts.cost.alpha = 10.0;
  opts.cost.beta = 0.0;
  for (int p : {2, 4, 8, 16}) {
    const double t = ModelTimeOf(p, opts, [](Comm& world) {
      std::int64_t v = 1, out = 0;
      mpisim::Request r =
          mpisim::Iscan(&v, &out, 1, Datatype::kInt64, ReduceOp::kSum, world);
      mpisim::Wait(r);
    });
    const int rounds = static_cast<int>(std::ceil(std::log2(p)));
    // Interior ranks pay a send plus a receive per round; the last rank's
    // final round is receive-only, so the critical path is
    // alpha * (2 * rounds - 1).
    EXPECT_DOUBLE_EQ(t, 10.0 * (2 * rounds - 1)) << "p=" << p;
  }
}

TEST(ClockProperty, BandwidthTermScalesLinearly) {
  mpisim::Runtime::Options opts;
  opts.cost.alpha = 0.0;
  opts.cost.beta = 1.0;
  const double t1 = ModelTimeOf(2, opts, [](Comm& world) {
    std::vector<double> v(100, 0.0);
    if (world.Rank() == 0) {
      mpisim::Send(v.data(), 100, Datatype::kFloat64, 1, 0, world);
    } else {
      mpisim::Recv(v.data(), 100, Datatype::kFloat64, 0, 0, world);
    }
  });
  const double t2 = ModelTimeOf(2, opts, [](Comm& world) {
    std::vector<double> v(200, 0.0);
    if (world.Rank() == 0) {
      mpisim::Send(v.data(), 200, Datatype::kFloat64, 1, 0, world);
    } else {
      mpisim::Recv(v.data(), 200, Datatype::kFloat64, 0, 0, world);
    }
  });
  EXPECT_DOUBLE_EQ(t2, 2.0 * t1);
}

TEST(ClockProperty, RbcSplitAddsExactlyZeroModelTime) {
  const double t = ModelTimeOf(8, {}, [](Comm& world) {
    rbc::Comm rw, sub;
    rbc::Create_RBC_Comm(world, &rw);
    for (int i = 0; i < 100; ++i) {
      rbc::Split_RBC_Comm(rw, 0, world.Size() - 1, &sub);
    }
  });
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(ClockProperty, NativeCreateGroupChargesLinearTerm) {
  // With alpha = beta = 0 the remaining cost of create_group is exactly
  // the O(p) group materialization: 2 * p * group_entry per rank (member
  // translation + explicit array construction).
  mpisim::Runtime::Options opts;
  opts.cost.alpha = 0.0;
  opts.cost.beta = 0.0;
  opts.cost.group_entry = 1.0;
  for (int p : {4, 8, 16}) {
    const double t = ModelTimeOf(p, opts, [](Comm& world) {
      const std::array<mpisim::RankRange, 1> rr{
          mpisim::RankRange{0, world.Size() - 1, 1}};
      mpisim::Comm sub = mpisim::CommCreateGroup(
          world, mpisim::GroupRangeIncl(world, rr), 1);
    });
    EXPECT_DOUBLE_EQ(t, 2.0 * p) << "p=" << p;
  }
}

TEST(ClockProperty, SlowVendorRingIsLinearInGroupSize) {
  mpisim::Runtime::Options opts;
  opts.cost.alpha = 1.0;
  opts.cost.beta = 0.0;
  opts.cost.group_entry = 0.0;
  opts.profile = mpisim::VendorProfile::kSlowCreateGroup;
  std::vector<double> times;
  for (int p : {4, 8, 16}) {
    times.push_back(ModelTimeOf(p, opts, [](Comm& world) {
      const std::array<mpisim::RankRange, 1> rr{
          mpisim::RankRange{0, world.Size() - 1, 1}};
      mpisim::Comm sub = mpisim::CommCreateGroup(
          world, mpisim::GroupRangeIncl(world, rr), 1);
    }));
  }
  // 2(p-1) serialized hops of alpha each: 6, 14, 30.
  EXPECT_DOUBLE_EQ(times[0], 6.0);
  EXPECT_DOUBLE_EQ(times[1], 14.0);
  EXPECT_DOUBLE_EQ(times[2], 30.0);
}

}  // namespace
