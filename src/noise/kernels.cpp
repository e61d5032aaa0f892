#include "noise/kernels.hpp"

#include <algorithm>

namespace nw::noise {

Combined combine_flat(std::span<const Contribution> contributions, AnalysisMode mode,
                      const Interval& restrict_to, const Constraints& constraints,
                      CombineView view, CombineScratch& s) {
  Combined out;
  const bool injected_only = view == CombineView::kInjectedOnly;
  if (mode == AnalysisMode::kNoFiltering && constraints.empty()) {
    // Everything coincides, always. Summation in (compacted) index order.
    std::size_t j = 0;
    for (const auto& c : contributions) {
      if (injected_only && c.is_propagated()) continue;
      out.peak += c.peak;
      out.width = std::max(out.width, c.width);
      out.active.push_back(j++);
    }
    out.alignment = Interval::everything();
    return out;
  }

  // Gather the view's member intervals into flat spans in (item, member)
  // order; the event sort breaks ties by that order, which fixes the
  // summation order.
  s.lo.clear();
  s.hi.clear();
  s.item.clear();
  s.weight.clear();
  s.width.clear();
  s.group.clear();
  const bool grouped = !constraints.empty();
  for (const auto& c : contributions) {
    if (injected_only && c.is_propagated()) continue;
    const std::size_t j = s.weight.size();
    s.weight.push_back(c.peak);
    s.width.push_back(c.width);
    if (grouped) {
      s.group.push_back(c.aggressor.valid() ? constraints.group_of(c.aggressor) : -1);
    }
    if (mode == AnalysisMode::kNoFiltering ||
        (view == CombineView::kPropagatedOpen && c.is_propagated())) {
      // No-filtering mode ignores windows but still honours logic
      // constraints; the propagated-open view widens fanin noise only.
      const Interval ev = Interval::everything();
      s.lo.push_back(ev.lo);
      s.hi.push_back(ev.hi);
      s.item.push_back(j);
    } else {
      for (const Interval& iv : c.window.intervals()) {
        s.lo.push_back(iv.lo);
        s.hi.push_back(iv.hi);
        s.item.push_back(j);
      }
    }
  }

  // Restrict in place. When restrict_to is `everything` this is the
  // identity (members already lie inside ±1e30); otherwise it clips each
  // member exactly like IntervalSet::intersect(Interval) and the event
  // builder below drops the emptied slots the way intersect() erases them.
  kernels::clip(s.lo, s.hi, restrict_to);

  s.events.clear();
  for (std::size_t k = 0; k < s.lo.size(); ++k) {
    if (s.lo[k] > s.hi[k]) continue;
    s.events.push_back({s.lo[k], true, s.item[k]});
    s.events.push_back({s.hi[k], false, s.item[k]});
  }
  const ScanResult scan =
      grouped ? scan_events_max_overlap_grouped(s.events, s.weight, s.group)
              : scan_events_max_overlap(s.events, s.weight);
  out.peak = scan.best_sum;
  out.alignment = scan.best_interval;
  out.active = scan.active;
  for (const auto i : scan.active) out.width = std::max(out.width, s.width[i]);
  return out;
}

namespace kernels {

void clip(std::span<double> lo, std::span<double> hi, const Interval& r) {
  const double rlo = r.lo;
  const double rhi = r.hi;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    lo[i] = std::max(lo[i], rlo);
    hi[i] = std::min(hi[i], rhi);
  }
}

void extend_right(std::span<const double> hi, std::span<const double> delay,
                  std::span<const double> width, std::span<double> out) {
  for (std::size_t i = 0; i < hi.size(); ++i) {
    const double after = delay[i] + width[i];
    out[i] = hi[i] + after;
  }
}

IntervalSet union_flat(std::vector<Interval>& members) {
  IntervalSet out;
  std::erase_if(members, [](const Interval& iv) { return iv.is_empty(); });
  if (members.empty()) return out;
  std::sort(members.begin(), members.end(), [](const Interval& a, const Interval& b) {
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.hi < b.hi;
  });
  // Sweep-merge: a member touching or overlapping the current run extends
  // it (hi = max — pure selection, as add()'s hull is); a gap starts a new
  // run. The runs are the canonical disjoint, gap-separated list add()
  // converges to regardless of insertion order.
  Interval cur = members.front();
  for (std::size_t i = 1; i < members.size(); ++i) {
    const Interval& m = members[i];
    if (m.lo <= cur.hi) {
      cur.hi = std::max(cur.hi, m.hi);
    } else {
      out.add(cur);
      cur = m;
    }
  }
  out.add(cur);
  return out;
}

}  // namespace kernels

}  // namespace nw::noise
