#include "util/interval_ref.hpp"

#include <algorithm>

namespace nw::ref {

bool valid_invariant(const IntervalSet& s) {
  const auto ivs = s.intervals();
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    if (ivs[i].is_empty()) return false;
    if (i > 0 && !(ivs[i - 1].hi < ivs[i].lo)) return false;
  }
  return true;
}

double measure(const IntervalSet& s) {
  double m = 0.0;
  for (const auto& iv : s.intervals()) m += iv.length();
  return m;
}

bool overlaps(const Interval& a, const Interval& b) {
  return !a.is_empty() && !b.is_empty() && a.lo <= b.hi && b.lo <= a.hi;
}

bool overlaps(const IntervalSet& s, const Interval& iv) {
  if (iv.is_empty()) return false;
  const auto ivs = s.intervals();
  const auto it = std::lower_bound(ivs.begin(), ivs.end(), iv.lo,
                                   [](const Interval& a, double v) { return a.hi < v; });
  return it != ivs.end() && overlaps(*it, iv);
}

bool overlaps(const IntervalSet& a, const IntervalSet& b) {
  const auto x = a.intervals();
  const auto y = b.intervals();
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (overlaps(x[i], y[j])) return true;
    if (x[i].hi < y[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

IntervalSet unite(const IntervalSet& a, const IntervalSet& b) {
  IntervalSet r = a;
  for (const auto& iv : b.intervals()) r.add(iv);
  return r;
}

IntervalSet subtract(const IntervalSet& a, const IntervalSet& b) {
  if (a.is_empty() || b.is_empty()) return a;
  const Interval span = a.hull().hull(b.hull()).dilated(1.0, 1.0);
  return a.intersect(complement(b, span));
}

IntervalSet complement(const IntervalSet& s, const Interval& span) {
  IntervalSet r;
  if (span.is_empty()) return r;
  double cursor = span.lo;
  for (const auto& iv : s.intervals()) {
    if (iv.hi < span.lo) continue;
    if (iv.lo > span.hi) break;
    if (iv.lo > cursor) r.add({cursor, iv.lo});
    cursor = std::max(cursor, iv.hi);
  }
  if (cursor < span.hi) r.add({cursor, span.hi});
  return r;
}

IntervalSet shifted(const IntervalSet& s, double dt) {
  IntervalSet r;
  for (const auto& iv : s.intervals()) r.add(iv.shifted(dt));
  return r;
}

IntervalSet dilated(const IntervalSet& s, double before, double after) {
  IntervalSet r;
  for (const auto& iv : s.intervals()) r.add(iv.dilated(before, after));
  return r;
}

Interval plus(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  return {a.lo + b.lo, a.hi + b.hi};
}

IntervalSet plus(const IntervalSet& s, const Interval& iv) {
  IntervalSet r;
  for (const auto& a : s.intervals()) r.add(plus(a, iv));
  return r;
}

std::optional<double> first_at_or_after(const IntervalSet& s, double t) {
  for (const auto& iv : s.intervals()) {
    if (iv.hi >= t) return std::max(t, iv.lo);
  }
  return std::nullopt;
}

}  // namespace nw::ref
