#include "util/interval.hpp"

#include <cassert>
#include <ostream>
#include <sstream>

namespace nw {

std::string Interval::str() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  if (iv.is_empty()) return os << "[empty]";
  return os << "[" << iv.lo << ", " << iv.hi << "]";
}

Interval IntervalSet::hull() const noexcept {
  if (ivs_.empty()) return Interval::empty();
  return {ivs_.front().lo, ivs_.back().hi};
}

bool IntervalSet::contains(double t) const noexcept {
  // Binary search over sorted disjoint intervals.
  auto it = std::upper_bound(ivs_.begin(), ivs_.end(), t,
                             [](double v, const Interval& iv) { return v < iv.lo; });
  if (it == ivs_.begin()) return false;
  return std::prev(it)->contains(t);
}

void IntervalSet::add(const Interval& iv) {
  if (iv.is_empty()) return;
  // Find the range of existing intervals that touch or overlap iv.
  auto first = std::lower_bound(ivs_.begin(), ivs_.end(), iv.lo,
                                [](const Interval& a, double v) { return a.hi < v; });
  auto last = std::upper_bound(first, ivs_.end(), iv.hi,
                               [](double v, const Interval& a) { return v < a.lo; });
  Interval merged = iv;
  for (auto it = first; it != last; ++it) merged = merged.hull(*it);
  const auto pos = ivs_.erase(first, last);
  ivs_.insert(pos, merged);
}

IntervalSet IntervalSet::intersect(const Interval& iv) const {
  IntervalSet r;
  if (iv.is_empty()) return r;
  for (const auto& a : ivs_) {
    const Interval x = a.intersect(iv);
    if (!x.is_empty()) r.ivs_.push_back(x);
  }
  return r;
}

IntervalSet IntervalSet::intersect(const IntervalSet& o) const {
  IntervalSet r;
  std::size_t i = 0, j = 0;
  while (i < ivs_.size() && j < o.ivs_.size()) {
    const Interval x = ivs_[i].intersect(o.ivs_[j]);
    if (!x.is_empty()) r.ivs_.push_back(x);
    if (ivs_[i].hi < o.ivs_[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return r;
}

}  // namespace nw
