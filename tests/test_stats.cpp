// RunningStats, Histogram, percentile.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nw {
namespace {

TEST(RunningStats, Empty) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MatchesBatchOnRandomData) {
  Rng rng(42);
  std::vector<double> xs;
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-10);
}

/// Bin counts as Histogram::ascii renders them ("lo .. hi : count\t###").
std::vector<std::size_t> ascii_counts(const Histogram& h) {
  std::istringstream rows(h.ascii());
  std::vector<std::size_t> counts;
  for (std::string row; std::getline(rows, row);) {
    counts.push_back(std::stoul(row.substr(row.find(" : ") + 3)));
  }
  return counts;
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(25.0);   // clamps to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(ascii_counts(h), (std::vector<std::size_t>{2, 0, 0, 0, 0, 1, 0, 0, 0, 2}));
  EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
}

TEST(Histogram, AsciiRendersEveryBin) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string text = h.ascii(10);
  // Two lines, each with a bar.
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Percentile, Basics) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 7.5);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace nw
