// Model-based property tests for IntervalSet: every algebra operation (the
// class's own and those in tests/util/interval_ref.hpp) is checked against
// a brute-force boolean model sampled on a fine grid.
#include <gtest/gtest.h>

#include <vector>

#include "util/interval.hpp"
#include "util/interval_ref.hpp"
#include "util/rng.hpp"

namespace nw {
namespace {

/// Discrete model: membership sampled at grid points (offset half a step
/// so samples never land exactly on interval endpoints).
constexpr double kLo = -10.0;
constexpr double kHi = 110.0;
constexpr int kSamples = 1201;

double sample_point(int i) {
  return kLo + (kHi - kLo) * (static_cast<double>(i) + 0.31) /
                   static_cast<double>(kSamples);
}

std::vector<bool> model_of(const IntervalSet& s) {
  std::vector<bool> m(kSamples);
  for (int i = 0; i < kSamples; ++i) m[static_cast<std::size_t>(i)] = s.contains(sample_point(i));
  return m;
}

IntervalSet random_set(Rng& rng) {
  IntervalSet s;
  const int pieces = static_cast<int>(rng.below(6));
  for (int p = 0; p < pieces; ++p) {
    const double lo = rng.uniform(0.0, 100.0);
    s.add({lo, lo + rng.uniform(0.0, 25.0)});
  }
  return s;
}

class IntervalSetModel : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 6151 + 29};
};

TEST_P(IntervalSetModel, UnionMatchesModel) {
  const IntervalSet a = random_set(rng_);
  const IntervalSet b = random_set(rng_);
  const IntervalSet u = ref::unite(a, b);
  ASSERT_TRUE(ref::valid_invariant(u));
  const auto ma = model_of(a);
  const auto mb = model_of(b);
  const auto mu = model_of(u);
  for (int i = 0; i < kSamples; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(mu[k], ma[k] || mb[k]) << "t=" << sample_point(i);
  }
}

TEST_P(IntervalSetModel, IntersectMatchesModel) {
  const IntervalSet a = random_set(rng_);
  const IntervalSet b = random_set(rng_);
  const IntervalSet x = a.intersect(b);
  ASSERT_TRUE(ref::valid_invariant(x));
  const auto ma = model_of(a);
  const auto mb = model_of(b);
  const auto mx = model_of(x);
  for (int i = 0; i < kSamples; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(mx[k], ma[k] && mb[k]) << "t=" << sample_point(i);
  }
}

TEST_P(IntervalSetModel, SubtractMatchesModel) {
  const IntervalSet a = random_set(rng_);
  const IntervalSet b = random_set(rng_);
  const IntervalSet d = ref::subtract(a, b);
  ASSERT_TRUE(ref::valid_invariant(d));
  const auto ma = model_of(a);
  const auto mb = model_of(b);
  const auto md = model_of(d);
  for (int i = 0; i < kSamples; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(md[k], ma[k] && !mb[k]) << "t=" << sample_point(i);
  }
}

TEST_P(IntervalSetModel, ComplementMatchesModel) {
  const IntervalSet a = random_set(rng_);
  const IntervalSet c = ref::complement(a, {kLo, kHi});
  ASSERT_TRUE(ref::valid_invariant(c));
  const auto ma = model_of(a);
  const auto mc = model_of(c);
  for (int i = 0; i < kSamples; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(mc[k], !ma[k]) << "t=" << sample_point(i);
  }
}

TEST_P(IntervalSetModel, DeMorgan) {
  const IntervalSet a = random_set(rng_);
  const IntervalSet b = random_set(rng_);
  const Interval span{kLo, kHi};
  // (A u B)^c == A^c n B^c within the span.
  const IntervalSet lhs = ref::complement(ref::unite(a, b), span);
  const IntervalSet rhs = ref::complement(a, span).intersect(ref::complement(b, span));
  EXPECT_EQ(model_of(lhs), model_of(rhs));
}

TEST_P(IntervalSetModel, ShiftPreservesMeasure) {
  const IntervalSet a = random_set(rng_);
  const double dt = rng_.uniform(-5.0, 5.0);
  const IntervalSet s = ref::shifted(a, dt);
  ASSERT_TRUE(ref::valid_invariant(s));
  EXPECT_NEAR(ref::measure(s), ref::measure(a), 1e-9);
  EXPECT_EQ(s.intervals().size(), a.intervals().size());
}

TEST_P(IntervalSetModel, DilationMonotone) {
  const IntervalSet a = random_set(rng_);
  const double grow = rng_.uniform(0.0, 3.0);
  const IntervalSet d = ref::dilated(a, grow, grow);
  ASSERT_TRUE(ref::valid_invariant(d));
  // Dilation is extensive: contains the original.
  const auto ma = model_of(a);
  const auto md = model_of(d);
  for (int i = 0; i < kSamples; ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (ma[k]) {
      EXPECT_TRUE(md[k]) << "t=" << sample_point(i);
    }
  }
  EXPECT_GE(ref::measure(d) + 1e-12, ref::measure(a));
}

TEST_P(IntervalSetModel, OverlapsAgreesWithIntersect) {
  const IntervalSet a = random_set(rng_);
  const IntervalSet b = random_set(rng_);
  EXPECT_EQ(ref::overlaps(a, b), !a.intersect(b).is_empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetModel, ::testing::Range(0, 25));

}  // namespace
}  // namespace nw
