// Interval and IntervalSet algebra: the foundation of window reasoning.
// The operations only tests use live in tests/util/interval_ref.hpp.
#include <gtest/gtest.h>

#include <sstream>

#include "util/interval.hpp"
#include "util/interval_ref.hpp"

namespace nw {
namespace {

TEST(Interval, DefaultIsEmpty) {
  const Interval iv;
  EXPECT_TRUE(iv.is_empty());
  EXPECT_DOUBLE_EQ(iv.length(), 0.0);
}

TEST(Interval, BasicProperties) {
  const Interval iv{1.0, 3.0};
  EXPECT_FALSE(iv.is_empty());
  EXPECT_DOUBLE_EQ(iv.length(), 2.0);
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(3.0));
  EXPECT_FALSE(iv.contains(3.0001));
}

TEST(Interval, DegeneratePointInterval) {
  const Interval pt{2.0, 2.0};
  EXPECT_FALSE(pt.is_empty());
  EXPECT_TRUE(pt.contains(2.0));
  EXPECT_DOUBLE_EQ(pt.length(), 0.0);
}

TEST(Interval, Overlaps) {
  EXPECT_TRUE(ref::overlaps(Interval{0, 2}, {1, 3}));
  EXPECT_TRUE(ref::overlaps(Interval{0, 2}, {2, 3}));  // closed: touching counts
  EXPECT_FALSE(ref::overlaps(Interval{0, 2}, {2.1, 3}));
  EXPECT_FALSE(ref::overlaps(Interval{0, 2}, Interval::empty()));
  EXPECT_FALSE(ref::overlaps(Interval::empty(), {0, 2}));
}

TEST(Interval, Intersect) {
  EXPECT_EQ((Interval{0, 5}).intersect({3, 8}), (Interval{3, 5}));
  EXPECT_TRUE((Interval{0, 1}).intersect({2, 3}).is_empty());
  EXPECT_EQ((Interval{0, 5}).intersect({5, 9}), (Interval{5, 5}));
}

TEST(Interval, HullAndShift) {
  EXPECT_EQ((Interval{0, 1}).hull({4, 5}), (Interval{0, 5}));
  EXPECT_EQ(Interval::empty().hull({4, 5}), (Interval{4, 5}));
  EXPECT_EQ((Interval{1, 2}).shifted(10), (Interval{11, 12}));
  EXPECT_TRUE(Interval::empty().shifted(10).is_empty());
}

TEST(Interval, DilatedAndPlus) {
  EXPECT_EQ((Interval{5, 6}).dilated(1, 2), (Interval{4, 8}));
  // Negative dilation can empty an interval.
  EXPECT_TRUE((Interval{5, 6}).dilated(-2, -2).is_empty());
  EXPECT_EQ(ref::plus(Interval{1, 2}, {10, 20}), (Interval{11, 22}));
  EXPECT_TRUE(ref::plus(Interval{1, 2}, Interval::empty()).is_empty());
}

TEST(Interval, ContainsInterval) {
  // a contains b exactly when a ∩ b is b.
  EXPECT_EQ((Interval{0, 10}).intersect(Interval{2, 3}), (Interval{2, 3}));
  EXPECT_TRUE((Interval{0, 10}).intersect(Interval::empty()).is_empty());
  EXPECT_NE((Interval{0, 10}).intersect(Interval{2, 11}), (Interval{2, 11}));
}

TEST(Interval, Stream) {
  std::ostringstream os;
  os << Interval{1, 2} << " " << Interval::empty();
  EXPECT_EQ(os.str(), "[1, 2] [empty]");
}

TEST(IntervalSet, AddMergesOverlapping) {
  IntervalSet s;
  s.add({0, 1});
  s.add({2, 3});
  EXPECT_EQ(s.intervals().size(), 2u);
  s.add({0.5, 2.5});  // bridges both
  EXPECT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], (Interval{0, 3}));
  EXPECT_TRUE(ref::valid_invariant(s));
}

TEST(IntervalSet, AddMergesTouching) {
  IntervalSet s;
  s.add({0, 1});
  s.add({1, 2});  // closed intervals that share an endpoint merge
  EXPECT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], (Interval{0, 2}));
}

TEST(IntervalSet, AddEmptyIsNoop) {
  IntervalSet s;
  s.add(Interval::empty());
  EXPECT_TRUE(s.is_empty());
}

TEST(IntervalSet, Contains) {
  const IntervalSet s{{0, 1}, {5, 6}};
  EXPECT_TRUE(s.contains(0.5));
  EXPECT_TRUE(s.contains(5.0));
  EXPECT_TRUE(s.contains(6.0));
  EXPECT_FALSE(s.contains(3.0));
  EXPECT_FALSE(s.contains(-1.0));
  EXPECT_FALSE(s.contains(7.0));
}

TEST(IntervalSet, Measure) {
  const IntervalSet s{{0, 1}, {5, 7}};
  EXPECT_DOUBLE_EQ(ref::measure(s), 3.0);
  EXPECT_EQ(s.hull(), (Interval{0, 7}));
}

TEST(IntervalSet, Intersect) {
  const IntervalSet a{{0, 2}, {4, 6}, {8, 10}};
  const IntervalSet b{{1, 5}, {9, 12}};
  const IntervalSet c = a.intersect(b);
  ASSERT_EQ(c.intervals().size(), 3u);
  EXPECT_EQ(c.intervals()[0], (Interval{1, 2}));
  EXPECT_EQ(c.intervals()[1], (Interval{4, 5}));
  EXPECT_EQ(c.intervals()[2], (Interval{9, 10}));
  EXPECT_TRUE(ref::valid_invariant(c));
}

TEST(IntervalSet, IntersectWithInterval) {
  const IntervalSet a{{0, 2}, {4, 6}};
  const IntervalSet c = a.intersect(Interval{1, 5});
  ASSERT_EQ(c.intervals().size(), 2u);
  EXPECT_EQ(c.intervals()[0], (Interval{1, 2}));
  EXPECT_EQ(c.intervals()[1], (Interval{4, 5}));
}

TEST(IntervalSet, Unite) {
  const IntervalSet a{{0, 1}};
  const IntervalSet b{{0.5, 3}, {10, 11}};
  const IntervalSet u = ref::unite(a, b);
  ASSERT_EQ(u.intervals().size(), 2u);
  EXPECT_EQ(u.intervals()[0], (Interval{0, 3}));
  EXPECT_EQ(u.intervals()[1], (Interval{10, 11}));
}

TEST(IntervalSet, Complement) {
  const IntervalSet s{{1, 2}, {4, 5}};
  const IntervalSet c = ref::complement(s, {0, 6});
  ASSERT_EQ(c.intervals().size(), 3u);
  EXPECT_EQ(c.intervals()[0], (Interval{0, 1}));
  EXPECT_EQ(c.intervals()[1], (Interval{2, 4}));
  EXPECT_EQ(c.intervals()[2], (Interval{5, 6}));
}

TEST(IntervalSet, Subtract) {
  const IntervalSet s{{0, 10}};
  const IntervalSet d = ref::subtract(s, IntervalSet{{2, 3}, {5, 6}});
  ASSERT_EQ(d.intervals().size(), 3u);
  EXPECT_EQ(d.intervals()[0], (Interval{0, 2}));
  EXPECT_EQ(d.intervals()[1], (Interval{3, 5}));
  EXPECT_EQ(d.intervals()[2], (Interval{6, 10}));
}

TEST(IntervalSet, Overlaps) {
  const IntervalSet a{{0, 1}, {5, 6}};
  EXPECT_TRUE(ref::overlaps(a, Interval{0.5, 0.6}));
  EXPECT_TRUE(ref::overlaps(a, Interval{6, 9}));
  EXPECT_FALSE(ref::overlaps(a, Interval{2, 4}));
  EXPECT_TRUE(ref::overlaps(a, IntervalSet{{2, 5.2}}));
  EXPECT_FALSE(ref::overlaps(a, IntervalSet{{2, 4.9}}));
}

TEST(IntervalSet, ShiftAndDilate) {
  const IntervalSet s{{0, 1}, {3, 4}};
  const IntervalSet sh = ref::shifted(s, 10);
  EXPECT_EQ(sh.intervals()[0], (Interval{10, 11}));
  EXPECT_EQ(sh.intervals()[1], (Interval{13, 14}));
  // Dilation merges the two members.
  const IntervalSet di = ref::dilated(s, 0, 2);
  EXPECT_EQ(di.intervals().size(), 1u);
  EXPECT_EQ(di.intervals()[0], (Interval{0, 6}));
  EXPECT_TRUE(ref::valid_invariant(di));
}

TEST(IntervalSet, Plus) {
  const IntervalSet s{{0, 1}};
  const IntervalSet p = ref::plus(s, {2, 3});
  ASSERT_EQ(p.intervals().size(), 1u);
  EXPECT_EQ(p.intervals()[0], (Interval{2, 4}));
}

TEST(IntervalSet, FirstAtOrAfter) {
  const IntervalSet s{{1, 2}, {5, 6}};
  EXPECT_EQ(ref::first_at_or_after(s, 0.0).value(), 1.0);
  EXPECT_EQ(ref::first_at_or_after(s, 1.5).value(), 1.5);
  EXPECT_EQ(ref::first_at_or_after(s, 3.0).value(), 5.0);
  EXPECT_FALSE(ref::first_at_or_after(s, 7.0).has_value());
}

TEST(IntervalSet, EverythingContainsAll) {
  const IntervalSet e = IntervalSet::everything();
  EXPECT_TRUE(e.contains(0.0));
  EXPECT_TRUE(e.contains(-1e20));
  EXPECT_TRUE(e.contains(1e20));
}

}  // namespace
}  // namespace nw
