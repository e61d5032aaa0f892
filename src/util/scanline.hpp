// Weighted interval scan line.
//
// Worst-case noise combination asks: given k contributions, each with a
// positive weight (glitch peak) and an availability window (an IntervalSet),
// find the time t maximizing the sum of weights of contributions whose
// window contains t. This is the classic stabbing-max problem, solved by
// sorting the 2m interval endpoints and sweeping — O(m log m) versus the
// O(2^k) brute-force subset enumeration it replaces.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/interval.hpp"

namespace nw {

/// One contribution to a scan: a weight available over a window.
struct WeightedWindow {
  double weight = 0.0;
  IntervalSet window;
};

/// One endpoint event of a scan: an interval of contribution `item` starts
/// (open) or ends (close) at time t. The flat kernel-buffer combine path
/// (noise/kernels.hpp) builds these directly from clipped spans, while
/// scan_max_overlap builds them from IntervalSets — both then run the same
/// scan_events_* cores below, so the two paths are bit-identical by
/// construction (same event sequence in, same sweep, same result out).
struct ScanEvent {
  double t;
  bool open;         // true: interval starts, false: interval ends
  std::size_t item;  // contribution index, < weights.size()
};

/// Result of a scan-line maximization.
struct ScanResult {
  double best_sum = 0.0;          ///< maximum simultaneous weight sum
  Interval best_interval;          ///< maximal interval achieving best_sum
  std::vector<std::size_t> active; ///< indices of contributions active there
};

/// Maximize the simultaneous weight sum over all time points.
///
/// Contributions with empty windows never participate. If every window is
/// empty the result has best_sum == 0 and an empty interval.
[[nodiscard]] ScanResult scan_max_overlap(std::span<const WeightedWindow> items);

/// Core of scan_max_overlap over caller-built events: sorts `events` in
/// place (by time, opens before closes) and sweeps. `weights[i]` is the
/// weight of contribution i; events must only reference items <
/// weights.size(). Contributions without events never participate.
[[nodiscard]] ScanResult scan_events_max_overlap(std::vector<ScanEvent>& events,
                                                 std::span<const double> weights);

/// Constrained scan over caller-built events: contributions carrying the
/// same non-negative group id are mutually exclusive (at most one switches
/// per cycle — complementary phases, one-hot selects), so at any time point
/// only the heaviest active member of each group counts. `groups` parallels
/// `weights`; a negative id means unconstrained (its own group). Objective:
/// max over t of sum over groups of max{w_i : t in W_i}. Sorts `events` as
/// scan_events_max_overlap does; O(m log m) with an ordered multiset per
/// group. noise::kernels::combine_flat runs it under logic constraints.
[[nodiscard]] ScanResult scan_events_max_overlap_grouped(
    std::vector<ScanEvent>& events, std::span<const double> weights,
    std::span<const int> groups);

/// Evaluate the sum of weights active at a specific time t.
[[nodiscard]] double overlap_sum_at(std::span<const WeightedWindow> items, double t);

/// Sample the step function sum(t) at `n` points across `span` (for plots).
struct ScanSample {
  double t = 0.0;
  double sum = 0.0;
};
[[nodiscard]] std::vector<ScanSample> scan_profile(
    std::span<const WeightedWindow> items, const Interval& span, std::size_t n);

/// Brute-force reference: enumerate subsets, keep the best whose windows
/// share a common point. Exponential — used only by tests and the
/// algorithmic-ablation bench.
[[nodiscard]] ScanResult brute_force_max_overlap(std::span<const WeightedWindow> items);

}  // namespace nw
