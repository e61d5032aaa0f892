// Window algebra no production path runs: union, difference, complement,
// shift, dilation and Minkowski sum of IntervalSets, their measure, overlap
// and first-point queries, and the IntervalSet class invariant. The
// analyzer needs only IntervalSet's insertion, intersection, hull and
// containment (util/interval.hpp). The IntervalSet unit and model tests
// check the rest of the algebra here, and valid_invariant() checks the
// windows of analysis results.
#pragma once

#include <optional>

#include "util/interval.hpp"

namespace nw::ref {

/// Members are non-empty and strictly separated: a.hi < b.lo for
/// consecutive members a, b.
[[nodiscard]] bool valid_invariant(const IntervalSet& s);

/// Sum of member lengths.
[[nodiscard]] double measure(const IntervalSet& s);

/// A common point exists (closed intervals: touching counts).
[[nodiscard]] bool overlaps(const Interval& a, const Interval& b);
[[nodiscard]] bool overlaps(const IntervalSet& s, const Interval& iv);
[[nodiscard]] bool overlaps(const IntervalSet& a, const IntervalSet& b);

[[nodiscard]] IntervalSet unite(const IntervalSet& a, const IntervalSet& b);
/// Set difference a \ b.
[[nodiscard]] IntervalSet subtract(const IntervalSet& a, const IntervalSet& b);
/// Complement of `s` within `span`.
[[nodiscard]] IntervalSet complement(const IntervalSet& s, const Interval& span);

[[nodiscard]] IntervalSet shifted(const IntervalSet& s, double dt);
/// Every member grown by `before` on the left and `after` on the right.
[[nodiscard]] IntervalSet dilated(const IntervalSet& s, double before, double after);
/// Minkowski sums {x + y : x in a, y in b} (a delay that is itself a range).
[[nodiscard]] Interval plus(const Interval& a, const Interval& b);
[[nodiscard]] IntervalSet plus(const IntervalSet& s, const Interval& iv);

/// First time point >= t contained in `s`, if any.
[[nodiscard]] std::optional<double> first_at_or_after(const IntervalSet& s, double t);

}  // namespace nw::ref
