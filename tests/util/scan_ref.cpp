#include "util/scan_ref.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>

namespace nw::ref {

ScanResult scan_max_overlap_grouped(std::span<const WeightedWindow> items,
                                    std::span<const int> groups) {
  if (groups.size() != items.size()) {
    throw std::invalid_argument("scan_max_overlap_grouped: group count mismatch");
  }
  std::vector<ScanEvent> events;
  std::vector<double> weights(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    weights[i] = items[i].weight;
    for (const auto& iv : items[i].window.intervals()) {
      events.push_back({iv.lo, true, i});
      events.push_back({iv.hi, false, i});
    }
  }
  return scan_events_max_overlap_grouped(events, weights, groups);
}

ScanResult brute_force_max_overlap_grouped(std::span<const WeightedWindow> items,
                                           std::span<const int> groups) {
  if (groups.size() != items.size()) {
    throw std::invalid_argument("brute_force_max_overlap_grouped: group count mismatch");
  }
  const std::size_t k = items.size();
  assert(k <= 26 && "brute force is exponential");
  ScanResult best;
  const std::size_t subsets = std::size_t{1} << k;
  for (std::size_t mask = 1; mask < subsets; ++mask) {
    // Group exclusivity: at most one member per non-negative group.
    bool legal = true;
    for (std::size_t i = 0; i < k && legal; ++i) {
      if (!(mask & (std::size_t{1} << i)) || groups[i] < 0) continue;
      for (std::size_t j = i + 1; j < k && legal; ++j) {
        if ((mask & (std::size_t{1} << j)) && groups[j] == groups[i]) legal = false;
      }
    }
    if (!legal) continue;
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

}  // namespace nw::ref
