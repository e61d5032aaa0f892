// Scan-line worst-alignment combination, cross-checked against the
// exponential brute force on randomized instances.
#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"
#include "util/scanline.hpp"

namespace nw {
namespace {

TEST(ScanLine, EmptyInput) {
  const ScanResult r = scan_max_overlap({});
  EXPECT_DOUBLE_EQ(r.best_sum, 0.0);
  EXPECT_TRUE(r.best_interval.is_empty());
}

TEST(ScanLine, SingleItem) {
  const std::vector<WeightedWindow> items{{2.5, IntervalSet{{1, 3}}}};
  const ScanResult r = scan_max_overlap(items);
  EXPECT_DOUBLE_EQ(r.best_sum, 2.5);
  EXPECT_EQ((Interval{1, 3}).intersect(r.best_interval), r.best_interval);
  ASSERT_EQ(r.active.size(), 1u);
  EXPECT_EQ(r.active[0], 0u);
}

TEST(ScanLine, EmptyWindowNeverParticipates) {
  const std::vector<WeightedWindow> items{
      {10.0, IntervalSet{}},
      {1.0, IntervalSet{{0, 1}}},
  };
  const ScanResult r = scan_max_overlap(items);
  EXPECT_DOUBLE_EQ(r.best_sum, 1.0);
}

TEST(ScanLine, DisjointPicksHeaviest) {
  const std::vector<WeightedWindow> items{
      {1.0, IntervalSet{{0, 1}}},
      {3.0, IntervalSet{{2, 3}}},
      {2.0, IntervalSet{{4, 5}}},
  };
  const ScanResult r = scan_max_overlap(items);
  EXPECT_DOUBLE_EQ(r.best_sum, 3.0);
  ASSERT_EQ(r.active.size(), 1u);
  EXPECT_EQ(r.active[0], 1u);
}

TEST(ScanLine, OverlapSums) {
  const std::vector<WeightedWindow> items{
      {1.0, IntervalSet{{0, 10}}},
      {2.0, IntervalSet{{5, 15}}},
      {4.0, IntervalSet{{8, 9}}},
  };
  const ScanResult r = scan_max_overlap(items);
  EXPECT_DOUBLE_EQ(r.best_sum, 7.0);
  EXPECT_EQ((Interval{8, 9}).intersect(r.best_interval), r.best_interval);
  EXPECT_EQ(r.active.size(), 3u);
}

TEST(ScanLine, TouchingEndpointsCount) {
  // Closed windows touching at a point can align exactly there.
  const std::vector<WeightedWindow> items{
      {1.0, IntervalSet{{0, 5}}},
      {1.0, IntervalSet{{5, 9}}},
  };
  const ScanResult r = scan_max_overlap(items);
  EXPECT_DOUBLE_EQ(r.best_sum, 2.0);
  EXPECT_TRUE(r.best_interval.contains(5.0));
}

TEST(ScanLine, MultiIntervalWindows) {
  const std::vector<WeightedWindow> items{
      {1.0, IntervalSet{{0, 1}, {10, 11}}},
      {2.0, IntervalSet{{10.5, 12}}},
  };
  const ScanResult r = scan_max_overlap(items);
  EXPECT_DOUBLE_EQ(r.best_sum, 3.0);
  EXPECT_EQ((Interval{10.5, 11}).intersect(r.best_interval), r.best_interval);
}

TEST(ScanLine, OverlapSumAt) {
  const std::vector<WeightedWindow> items{
      {1.0, IntervalSet{{0, 10}}},
      {2.0, IntervalSet{{5, 15}}},
  };
  EXPECT_DOUBLE_EQ(overlap_sum_at(items, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(overlap_sum_at(items, 7.0), 3.0);
  EXPECT_DOUBLE_EQ(overlap_sum_at(items, 12.0), 2.0);
  EXPECT_DOUBLE_EQ(overlap_sum_at(items, 20.0), 0.0);
}

TEST(ScanLine, ProfileSamplesStepFunction) {
  const std::vector<WeightedWindow> items{
      {1.0, IntervalSet{{0, 1}}},
  };
  const auto prof = scan_profile(items, {0, 2}, 5);
  ASSERT_EQ(prof.size(), 5u);
  EXPECT_DOUBLE_EQ(prof[0].sum, 1.0);   // t = 0
  EXPECT_DOUBLE_EQ(prof[2].sum, 1.0);   // t = 1
  EXPECT_DOUBLE_EQ(prof[4].sum, 0.0);   // t = 2
}

TEST(ScanLine, BruteForceAgreesOnSmallCase) {
  const std::vector<WeightedWindow> items{
      {1.0, IntervalSet{{0, 10}}},
      {2.0, IntervalSet{{5, 15}}},
      {4.0, IntervalSet{{8, 9}}},
      {8.0, IntervalSet{{20, 30}}},
  };
  const ScanResult fast = scan_max_overlap(items);
  const ScanResult slow = brute_force_max_overlap(items);
  EXPECT_DOUBLE_EQ(fast.best_sum, slow.best_sum);
}

/// Property: scan line == brute force on randomized instances.
class ScanRandomized : public ::testing::TestWithParam<int> {};

TEST_P(ScanRandomized, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int k = 2 + static_cast<int>(rng.below(9));  // 2..10 items
  std::vector<WeightedWindow> items;
  for (int i = 0; i < k; ++i) {
    WeightedWindow ww;
    ww.weight = rng.uniform(0.1, 5.0);
    const int pieces = 1 + static_cast<int>(rng.below(3));
    for (int p = 0; p < pieces; ++p) {
      const double lo = rng.uniform(0.0, 100.0);
      ww.window.add({lo, lo + rng.uniform(0.0, 20.0)});
    }
    items.push_back(std::move(ww));
  }
  const ScanResult fast = scan_max_overlap(items);
  const ScanResult slow = brute_force_max_overlap(items);
  EXPECT_NEAR(fast.best_sum, slow.best_sum, 1e-12);
  // The reported alignment interval must actually achieve the best sum.
  if (!fast.best_interval.is_empty()) {
    const double mid = 0.5 * (fast.best_interval.lo + fast.best_interval.hi);
    EXPECT_NEAR(overlap_sum_at(items, mid), fast.best_sum, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanRandomized, ::testing::Range(0, 40));

}  // namespace
}  // namespace nw
