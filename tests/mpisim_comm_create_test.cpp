// Communicator construction: split and create_group -- context isolation,
// group correctness, vendor profiles, and id recycling.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "testutil.hpp"

namespace {

using mpisim::Comm;
using mpisim::Datatype;
using mpisim::Group;
using mpisim::RankRange;
using mpisim::ReduceOp;
using testutil::RunRanks;

TEST(CommSplit, HalvesFormTwoWorkingCommunicators) {
  RunRanks(8, [](Comm& world) {
    const int color = world.Rank() < 4 ? 0 : 1;
    Comm half = mpisim::CommSplit(world, color, world.Rank());
    ASSERT_FALSE(half.IsNull());
    EXPECT_EQ(half.Size(), 4);
    EXPECT_EQ(half.Rank(), world.Rank() % 4);
    std::int64_t sum = 0;
    const std::int64_t mine = world.Rank();
    mpisim::Allreduce(&mine, &sum, 1, Datatype::kInt64, ReduceOp::kSum, half);
    EXPECT_EQ(sum, color == 0 ? 0 + 1 + 2 + 3 : 4 + 5 + 6 + 7);
  });
}

TEST(CommSplit, KeyReordersRanks) {
  RunRanks(4, [](Comm& world) {
    // Reverse the ranks via the key.
    Comm rev = mpisim::CommSplit(world, 0, -world.Rank());
    ASSERT_FALSE(rev.IsNull());
    EXPECT_EQ(rev.Rank(), 3 - world.Rank());
    EXPECT_EQ(rev.WorldRank(0), 3);
  });
}

TEST(CommSplit, UndefinedColorYieldsNullComm) {
  RunRanks(4, [](Comm& world) {
    const int color =
        world.Rank() == 0 ? mpisim::kUndefinedColor : 1;
    Comm c = mpisim::CommSplit(world, color, 0);
    if (world.Rank() == 0) {
      EXPECT_TRUE(c.IsNull());
    } else {
      ASSERT_FALSE(c.IsNull());
      EXPECT_EQ(c.Size(), 3);
    }
  });
}

TEST(CommSplit, TiedKeysOrderByParentRank) {
  RunRanks(4, [](Comm& world) {
    Comm c = mpisim::CommSplit(world, 0, /*key=*/0);
    ASSERT_FALSE(c.IsNull());
    EXPECT_EQ(c.Rank(), world.Rank());
  });
}

TEST(CommCreateGroup, BuildsSubgroupCommunicator) {
  RunRanks(6, [](Comm& world) {
    if (world.Rank() < 2) return;  // only members call it
    const std::array<RankRange, 1> r{RankRange{2, 5, 1}};
    Group g = mpisim::GroupRangeIncl(world, r);
    Comm sub = mpisim::CommCreateGroup(world, g, /*tag=*/17);
    ASSERT_FALSE(sub.IsNull());
    EXPECT_EQ(sub.Size(), 4);
    EXPECT_EQ(sub.Rank(), world.Rank() - 2);
    std::int64_t sum = 0;
    const std::int64_t mine = 1;
    mpisim::Allreduce(&mine, &sum, 1, Datatype::kInt64, ReduceOp::kSum, sub);
    EXPECT_EQ(sum, 4);
  });
}

TEST(CommCreateGroup, SlowProfileProducesSameResult) {
  mpisim::Runtime::Options opts;
  opts.num_ranks = 5;
  opts.profile = mpisim::VendorProfile::kSlowCreateGroup;
  testutil::RunRanks(opts, [](Comm& world, mpisim::Runtime&) {
    const std::array<RankRange, 1> r{RankRange{0, 4, 1}};
    Group g = mpisim::GroupRangeIncl(world, r);
    Comm sub = mpisim::CommCreateGroup(world, g, 3);
    ASSERT_FALSE(sub.IsNull());
    std::int64_t sum = 0;
    const std::int64_t mine = world.Rank();
    mpisim::Allreduce(&mine, &sum, 1, Datatype::kInt64, ReduceOp::kSum, sub);
    EXPECT_EQ(sum, 10);
  });
}

TEST(CommCreateGroup, NonMemberCallThrows) {
  EXPECT_THROW(
      RunRanks(4,
               [](Comm& world) {
                 const std::array<RankRange, 1> r{RankRange{1, 3, 1}};
                 Group g = mpisim::GroupRangeIncl(world, r);
                 // Rank 0 is not a member but calls anyway.
                 mpisim::CommCreateGroup(world, g, 0);
               }),
      mpisim::UsageError);
}

TEST(CommCreateGroup, OverlappingGroupsDoNotInterfere) {
  // Groups {0..2} and {2..4} overlap in rank 2, which creates both
  // sequentially (left first). Traffic on the two must stay isolated.
  RunRanks(5, [](Comm& world) {
    const int r = world.Rank();
    Comm left, right;
    if (r <= 2) {
      const std::array<RankRange, 1> range{RankRange{0, 2, 1}};
      left = mpisim::CommCreateGroup(
          world, mpisim::GroupRangeIncl(world, range), 1);
    }
    if (r >= 2) {
      const std::array<RankRange, 1> range{RankRange{2, 4, 1}};
      right = mpisim::CommCreateGroup(
          world, mpisim::GroupRangeIncl(world, range), 2);
    }
    // Same tag, different communicators: context ids must separate them.
    if (!left.IsNull()) {
      std::int64_t v = r;
      mpisim::Bcast(&v, 1, Datatype::kInt64, 0, left);
      EXPECT_EQ(v, 0);
    }
    if (!right.IsNull()) {
      std::int64_t v = r;
      mpisim::Bcast(&v, 1, Datatype::kInt64, 0, right);
      EXPECT_EQ(v, 2);
    }
  });
}

TEST(CommSplit, WholeWorldSplitIsolatesTrafficFromParent) {
  RunRanks(2, [](Comm& world) {
    // One color, keyed by rank: the world's group under a new context id.
    Comm copy = mpisim::CommSplit(world, 0, world.Rank());
    ASSERT_FALSE(copy.IsNull());
    EXPECT_EQ(copy.Size(), world.Size());
    if (world.Rank() == 0) {
      const int a = 1, b = 2;
      mpisim::Send(&a, 1, Datatype::kInt32, 1, 0, world);
      mpisim::Send(&b, 1, Datatype::kInt32, 1, 0, copy);
    } else {
      // Receive from the copy first: the world message must not match.
      int got = 0;
      mpisim::Recv(&got, 1, Datatype::kInt32, 0, 0, copy);
      EXPECT_EQ(got, 2);
      mpisim::Recv(&got, 1, Datatype::kInt32, 0, 0, world);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(ContextIds, ReleasedOnDestructionAndRecycled) {
  RunRanks(2, [](Comm& world) {
    std::uint64_t first_base = 0;
    {
      Comm first = mpisim::CommSplit(world, 0, world.Rank());
      first_base = first.Base();
    }
    mpisim::Barrier(world);  // both ranks dropped the handle
    Comm second = mpisim::CommSplit(world, 0, world.Rank());
    EXPECT_EQ(second.Base(), first_base);  // the id was recycled
  });
}

TEST(ContextIds, DistinctForLiveCommunicators) {
  RunRanks(3, [](Comm& world) {
    Comm a = mpisim::CommSplit(world, 0, world.Rank());
    Comm b = mpisim::CommSplit(world, 0, world.Rank());
    EXPECT_NE(a.Base(), b.Base());
    EXPECT_NE(a.Base(), world.Base());
  });
}

TEST(Groups, RangeInclKeepsSparseStorage) {
  RunRanks(8, [](Comm& world) {
    const std::array<RankRange, 2> r{RankRange{0, 2, 1}, RankRange{6, 7, 1}};
    Group g = mpisim::GroupRangeIncl(world, r);
    EXPECT_EQ(g.Size(), 5);
    EXPECT_EQ(g.StorageEntries(), 2u);  // two ranges, not five ranks
    EXPECT_EQ(g.WorldRank(3), 6);
    EXPECT_EQ(g.RankOfWorld(7), 4);
    EXPECT_EQ(g.RankOfWorld(4), -1);
  });
}

TEST(Groups, InclBuildsExplicitStorage) {
  RunRanks(4, [](Comm& world) {
    const std::array<int, 3> ranks{3, 1, 0};
    Group g = mpisim::GroupIncl(world, ranks);
    EXPECT_EQ(g.Size(), 3);
    EXPECT_TRUE(g.IsExplicit());
    EXPECT_EQ(g.WorldRank(0), 3);
    EXPECT_EQ(g.RankOfWorld(1), 1);
  });
}

TEST(CommSplit, NestedSplitsComposeCorrectly) {
  RunRanks(8, [](Comm& world) {
    Comm half = mpisim::CommSplit(world, world.Rank() / 4, world.Rank());
    Comm quarter = mpisim::CommSplit(half, half.Rank() / 2, half.Rank());
    ASSERT_FALSE(quarter.IsNull());
    EXPECT_EQ(quarter.Size(), 2);
    std::int64_t sum = 0;
    const std::int64_t mine = world.Rank();
    mpisim::Allreduce(&mine, &sum, 1, Datatype::kInt64, ReduceOp::kSum,
                      quarter);
    const int base = (world.Rank() / 2) * 2;
    EXPECT_EQ(sum, base + base + 1);
  });
}

}  // namespace
