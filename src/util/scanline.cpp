#include "util/scanline.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

namespace nw {

ScanResult scan_events_max_overlap(std::vector<ScanEvent>& events,
                                   std::span<const double> weights) {
  ScanResult best;
  if (events.empty()) return best;

  // Closed intervals: at a shared endpoint, opens must be processed before
  // closes so that a point where one window ends exactly as another begins
  // counts both.
  std::sort(events.begin(), events.end(), [](const ScanEvent& a, const ScanEvent& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.open > b.open;
  });

  double sum = 0.0;
  std::vector<int> active_count(weights.size(), 0);
  std::size_t i = 0;
  while (i < events.size()) {
    const double t = events[i].t;
    // Apply all opens at t, then evaluate, then apply closes at t.
    std::size_t j = i;
    while (j < events.size() && events[j].t == t && events[j].open) {
      if (active_count[events[j].item]++ == 0) sum += weights[events[j].item];
      ++j;
    }
    if (sum > best.best_sum) {
      best.best_sum = sum;
      best.best_interval = {t, t};
      best.active.clear();
      for (std::size_t k = 0; k < weights.size(); ++k) {
        if (active_count[k] > 0) best.active.push_back(k);
      }
    }
    while (j < events.size() && events[j].t == t && !events[j].open) {
      if (--active_count[events[j].item] == 0) sum -= weights[events[j].item];
      ++j;
    }
    i = j;
  }

  // Second pass: report the first maximal run — the contiguous interval
  // over which the maximum sum is continuously held. (Only the first run is
  // reported so that every point of best_interval achieves best_sum.)
  if (best.best_sum > 0.0) {
    const double tol = 1e-12 * best.best_sum;
    double sum2 = 0.0;
    std::vector<int> cnt(weights.size(), 0);
    double start = 0.0;
    bool in_max = false;
    std::size_t a = 0;
    while (a < events.size()) {
      const double t = events[a].t;
      std::size_t b = a;
      while (b < events.size() && events[b].t == t && events[b].open) {
        if (cnt[events[b].item]++ == 0) sum2 += weights[events[b].item];
        ++b;
      }
      if (!in_max && sum2 >= best.best_sum - tol) {
        start = t;
        in_max = true;
      }
      while (b < events.size() && events[b].t == t && !events[b].open) {
        if (--cnt[events[b].item] == 0) sum2 -= weights[events[b].item];
        ++b;
      }
      if (in_max && sum2 < best.best_sum - tol) {
        best.best_interval = {start, t};
        break;
      }
      a = b;
    }
  }
  return best;
}

ScanResult scan_max_overlap(std::span<const WeightedWindow> items) {
  std::vector<ScanEvent> events;
  std::vector<double> weights(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    weights[i] = items[i].weight;
    for (const auto& iv : items[i].window.intervals()) {
      events.push_back({iv.lo, true, i});
      events.push_back({iv.hi, false, i});
    }
  }
  return scan_events_max_overlap(events, weights);
}

double overlap_sum_at(std::span<const WeightedWindow> items, double t) {
  double sum = 0.0;
  for (const auto& it : items) {
    if (it.window.contains(t)) sum += it.weight;
  }
  return sum;
}

std::vector<ScanSample> scan_profile(std::span<const WeightedWindow> items,
                                     const Interval& span, std::size_t n) {
  std::vector<ScanSample> out;
  if (span.is_empty() || n == 0) return out;
  out.reserve(n);
  const double step = n > 1 ? span.length() / static_cast<double>(n - 1) : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = span.lo + step * static_cast<double>(i);
    out.push_back({t, overlap_sum_at(items, t)});
  }
  return out;
}

ScanResult scan_events_max_overlap_grouped(std::vector<ScanEvent>& events,
                                           std::span<const double> weights,
                                           std::span<const int> groups) {
  if (groups.size() != weights.size()) {
    throw std::invalid_argument("scan_events_max_overlap_grouped: group count mismatch");
  }
  const std::size_t n = weights.size();
  // Normalize: negative group ids become singleton groups.
  int next_group = 0;
  for (const int g : groups) next_group = std::max(next_group, g + 1);
  std::vector<int> gid(n);
  for (std::size_t i = 0; i < n; ++i) {
    gid[i] = groups[i] >= 0 ? groups[i] : next_group++;
  }

  ScanResult best;
  if (events.empty()) return best;
  std::sort(events.begin(), events.end(), [](const ScanEvent& a, const ScanEvent& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.open > b.open;
  });

  // Per-group ordered multiset of active weights; objective maintains
  // sum over groups of the group's max.
  std::vector<std::multiset<double>> active(static_cast<std::size_t>(next_group));
  std::vector<int> active_count(n, 0);
  double objective = 0.0;

  auto group_max = [&](int g) {
    const auto& s = active[static_cast<std::size_t>(g)];
    return s.empty() ? 0.0 : *s.rbegin();
  };
  auto insert_item = [&](std::size_t i) {
    if (active_count[i]++ > 0) return;
    const int g = gid[i];
    const double before = group_max(g);
    active[static_cast<std::size_t>(g)].insert(weights[i]);
    objective += group_max(g) - before;
  };
  auto erase_item = [&](std::size_t i) {
    if (--active_count[i] > 0) return;
    const int g = gid[i];
    const double before = group_max(g);
    auto& s = active[static_cast<std::size_t>(g)];
    s.erase(s.find(weights[i]));
    objective += group_max(g) - before;
  };

  std::size_t i = 0;
  while (i < events.size()) {
    const double t = events[i].t;
    std::size_t j = i;
    while (j < events.size() && events[j].t == t && events[j].open) {
      insert_item(events[j].item);
      ++j;
    }
    if (objective > best.best_sum) {
      best.best_sum = objective;
      best.best_interval = {t, t};
      best.active.clear();
      // Report the heaviest active member per group.
      std::vector<std::size_t> per_group(static_cast<std::size_t>(next_group), n);
      for (std::size_t k = 0; k < n; ++k) {
        if (active_count[k] == 0) continue;
        auto& slot = per_group[static_cast<std::size_t>(gid[k])];
        if (slot == n || weights[k] > weights[slot]) slot = k;
      }
      for (const auto slot : per_group) {
        if (slot != n) best.active.push_back(slot);
      }
      std::sort(best.active.begin(), best.active.end());
    }
    while (j < events.size() && events[j].t == t && !events[j].open) {
      erase_item(events[j].item);
      ++j;
    }
    i = j;
  }
  return best;
}

ScanResult brute_force_max_overlap(std::span<const WeightedWindow> items) {
  const std::size_t k = items.size();
  assert(k <= 26 && "brute force is exponential; test/ablation use only");
  ScanResult best;
  const std::size_t subsets = std::size_t{1} << k;
  for (std::size_t mask = 1; mask < subsets; ++mask) {
    double sum = 0.0;
    IntervalSet common = IntervalSet::everything();
    bool feasible = true;
    for (std::size_t i = 0; i < k && feasible; ++i) {
      if (!(mask & (std::size_t{1} << i))) continue;
      common = common.intersect(items[i].window);
      if (common.is_empty()) feasible = false;
      sum += items[i].weight;
    }
    if (feasible && sum > best.best_sum) {
      best.best_sum = sum;
      best.best_interval = common.hull();
      best.active.clear();
      for (std::size_t i = 0; i < k; ++i) {
        if (mask & (std::size_t{1} << i)) best.active.push_back(i);
      }
    }
  }
  return best;
}

}  // namespace nw
