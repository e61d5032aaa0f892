// Closed time intervals and disjoint interval sets ("windows").
//
// Windows are the central data structure of noise-window analysis:
//  - a switching window is the interval [earliest, latest] arrival of a net,
//  - a noise window is the set of times at which a glitch can exist,
//  - a latch sensitivity window is [clock - setup, clock + hold].
//
// IntervalSet keeps a sorted vector of disjoint, non-adjacent closed
// intervals with the operations the analyzer runs on them: insertion with
// merging (union), intersection, hull and containment. Propagation
// shifts and dilates window members in flat arrays (noise/analyzer.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace nw {

/// A closed interval [lo, hi] on the real (time) axis. Empty iff lo > hi.
struct Interval {
  double lo = 0.0;
  double hi = -1.0;  // default-constructed interval is empty

  constexpr Interval() = default;
  constexpr Interval(double l, double h) noexcept : lo(l), hi(h) {}

  /// The canonical empty interval.
  [[nodiscard]] static constexpr Interval empty() noexcept { return {}; }
  /// The whole real line (practically: +-1e30 s, far outside any chip time).
  [[nodiscard]] static constexpr Interval everything() noexcept {
    return {-1e30, 1e30};
  }

  [[nodiscard]] constexpr bool is_empty() const noexcept { return lo > hi; }
  [[nodiscard]] constexpr double length() const noexcept {
    return is_empty() ? 0.0 : hi - lo;
  }
  [[nodiscard]] constexpr bool contains(double t) const noexcept {
    return lo <= t && t <= hi;
  }

  /// Set intersection; empty if disjoint.
  [[nodiscard]] constexpr Interval intersect(const Interval& o) const noexcept {
    if (is_empty() || o.is_empty()) return empty();
    const Interval r{std::max(lo, o.lo), std::min(hi, o.hi)};
    return r.is_empty() ? empty() : r;
  }

  /// Smallest interval containing both (the convex hull).
  [[nodiscard]] constexpr Interval hull(const Interval& o) const noexcept {
    if (is_empty()) return o;
    if (o.is_empty()) return *this;
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
  }

  /// Translate by dt (noise propagated through a gate shifts by its delay).
  [[nodiscard]] constexpr Interval shifted(double dt) const noexcept {
    return is_empty() ? empty() : Interval{lo + dt, hi + dt};
  }

  /// Grow by `before` on the left and `after` on the right (glitch width
  /// dilation: a glitch triggered at t occupies [t, t + width]).
  [[nodiscard]] constexpr Interval dilated(double before, double after) const noexcept {
    if (is_empty()) return empty();
    const Interval r{lo - before, hi + after};
    return r.is_empty() ? empty() : r;
  }

  friend constexpr bool operator==(const Interval& a, const Interval& b) noexcept {
    if (a.is_empty() && b.is_empty()) return true;
    return a.lo == b.lo && a.hi == b.hi;
  }

  [[nodiscard]] std::string str() const;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

/// A set of disjoint, sorted, non-adjacent closed intervals.
///
/// Invariant (tests check it with ref::valid_invariant, tests/util/):
///   for consecutive intervals a, b:  a.hi < b.lo  (strictly), and no
///   member interval is empty.
class IntervalSet {
 public:
  IntervalSet() = default;
  /*implicit*/ IntervalSet(const Interval& iv) { add(iv); }  // NOLINT
  IntervalSet(std::initializer_list<Interval> ivs) {
    for (const auto& iv : ivs) add(iv);
  }

  [[nodiscard]] static IntervalSet everything() {
    return IntervalSet{Interval::everything()};
  }

  [[nodiscard]] bool is_empty() const noexcept { return ivs_.empty(); }
  [[nodiscard]] std::span<const Interval> intervals() const noexcept { return ivs_; }

  /// Convex hull of the whole set (empty interval if set is empty).
  [[nodiscard]] Interval hull() const noexcept;
  [[nodiscard]] bool contains(double t) const noexcept;

  /// Insert an interval, merging as needed. No-op for empty input.
  void add(const Interval& iv);

  [[nodiscard]] IntervalSet intersect(const Interval& iv) const;
  [[nodiscard]] IntervalSet intersect(const IntervalSet& o) const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.ivs_ == b.ivs_;
  }

 private:
  std::vector<Interval> ivs_;
};

}  // namespace nw
