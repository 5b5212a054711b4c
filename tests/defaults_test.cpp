// Pins the measured default large-message segment limit (ROADMAP item:
// tune a default segment_bytes). The value comes from bench_sensitivity's
// segment_crossover sweep on the virtual cost model -- see the comment at
// jsort::exchange::kDefaultSegmentBytes -- and every sorter config with a
// segment limit must default to it (MultilevelSampleSort passes it
// directly), so a change to the constant is a deliberate, test-visible
// decision. The end-to-end case proves the default actually engages: a
// sort whose per-destination payloads exceed the limit must ship more
// wire segments than logical messages and still sort correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sort/jquick.hpp"
#include "sort/sample_sort.hpp"
#include "sort/workload.hpp"
#include "testutil.hpp"

namespace {

TEST(SegmentBytesDefault, PinnedToMeasuredCrossover) {
  EXPECT_EQ(jsort::exchange::kDefaultSegmentBytes, 65536);
}

TEST(SegmentBytesDefault, AllSorterConfigsUseIt) {
  EXPECT_EQ(jsort::JQuickConfig{}.segment_bytes,
            jsort::exchange::kDefaultSegmentBytes);
  EXPECT_EQ(jsort::SampleSortConfig{}.segment_bytes,
            jsort::exchange::kDefaultSegmentBytes);
}

/// With the default limit, a quota of 2^14 doubles (128 KiB potential
/// per-destination payloads) must segment: more wire segments than
/// logical messages, and the result still globally sorted and perfectly
/// balanced.
TEST(SegmentBytesDefault, DefaultEngagesOnLargeMessages) {
  constexpr int kP = 4;
  constexpr int kQuota = 1 << 14;
  testutil::PerRank<std::vector<double>> outputs(kP);
  testutil::PerRank<jsort::JQuickStats> stats(kP);
  testutil::RunRbc(kP, [&](rbc::Comm& rw) {
    auto tr = jsort::MakeRbcTransport(rw);
    auto input = jsort::GenerateInput(jsort::InputKind::kUniform, tr->Rank(),
                                      kP, kQuota, 11);
    jsort::JQuickStats st;
    auto out = jsort::JQuickSort(tr, std::move(input), jsort::JQuickConfig{},
                                 &st);
    outputs.Set(tr->Rank(), std::move(out));
    stats.Set(tr->Rank(), st);
  });

  std::int64_t messages = 0, segments = 0;
  std::vector<double> all;
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(outputs[r].size(), static_cast<std::size_t>(kQuota))
        << "rank " << r;
    EXPECT_TRUE(std::is_sorted(outputs[r].begin(), outputs[r].end()));
    if (r > 0 && !outputs[r - 1].empty() && !outputs[r].empty()) {
      EXPECT_LE(outputs[r - 1].back(), outputs[r].front());
    }
    messages += stats[r].messages_sent;
    segments += stats[r].segments_sent;
  }
  EXPECT_GT(segments, messages)
      << "the default segment limit never engaged on 128 KiB payloads";
}

}  // namespace
