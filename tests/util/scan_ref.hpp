// The grouped scan line over IntervalSet windows, and its brute-force
// reference. The analyzer runs the grouped scan's core,
// scan_events_max_overlap_grouped (util/scanline.hpp), on events that
// noise::kernels::combine_flat builds from flat spans. The wrapper here
// feeds the same core from WeightedWindows, so the constraint, kernel and
// delay-impact tests reach it directly and check it against subset
// enumeration.
#pragma once

#include <span>

#include "util/scanline.hpp"

namespace nw::ref {

/// Constrained scan (see scan_events_max_overlap_grouped): contributions
/// carrying the same non-negative group id are mutually exclusive; group < 0
/// means unconstrained. Throws std::invalid_argument unless `groups`
/// parallels `items`.
[[nodiscard]] ScanResult scan_max_overlap_grouped(std::span<const WeightedWindow> items,
                                                  std::span<const int> groups);

/// Subset enumeration with at most one member per non-negative group, keeping
/// the heaviest subset whose windows share a common point. Exponential.
[[nodiscard]] ScanResult brute_force_max_overlap_grouped(
    std::span<const WeightedWindow> items, std::span<const int> groups);

}  // namespace nw::ref
