// The flat analysis kernels the stages (noise/analyzer.cpp) run over the
// AnalysisContext's slabs (noise/context.hpp) and per-net contribution
// sets.
//
// Each flat kernel computes a definition the tests check it against
// directly (tests/test_kernels.cpp):
//
//   - combine_flat() is the worst simultaneous sum: the largest total
//     weight of contributions whose windows share one instant, at most
//     one per mutual-exclusion group — the brute-force maximum over every
//     window's left edge, computed by one sorted event sweep.
//   - union_flat() is the canonical union repeated IntervalSet::add()
//     converges to; merged endpoints are min/max selections, no arithmetic.
//   - clip() is IntervalSet::intersect(Interval), elementwise; extend_right()
//     is Interval::dilated(0, delay + width), batched.
//
// Every floating-point expression lives in exactly one compiled function
// (the peaks_* kernels in glitch_models, the event-scan cores in
// util/scanline), so the per-pair estimate() wrappers and the batched
// estimation agree to the bit, and -ffp-contract=fast has one contraction
// decision to make per expression.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "noise/analyzer.hpp"
#include "util/interval.hpp"
#include "util/scanline.hpp"

namespace nw::noise {

/// Worst simultaneous sum of contributions, optionally restricted to a
/// time window (mode 3 latch checks restrict to the sensitivity window).
/// Produced by combine_flat().
struct Combined {
  double peak = 0.0;
  double width = 0.0;
  Interval alignment;
  std::vector<std::size_t> active;
};

/// Which contributions a combination sees. combine_flat() gathers the view
/// in place, without copying the contribution vector.
enum class CombineView {
  /// Every contribution, windows as recorded. `active` holds original
  /// contribution indices.
  kAll,
  /// Injected contributions only (skips fanin-propagated ones). Indices
  /// are COMPACTED — 0..m-1 in original relative order — exactly as if the
  /// injected contributions were copied into their own vector first; the
  /// indices order event-sort ties, and with them the summation order.
  /// Only `.peak` is meaningful to current callers.
  kInjectedOnly,
  /// Propagated windows widened to `everything` (provenance's
  /// "switching-windows" stage). Original indices.
  kPropagatedOpen,
};

/// Reusable gather/scan scratch for combine_flat — one per thread, so a
/// combination allocates nothing once the scratch has grown.
struct CombineScratch {
  std::vector<double> lo, hi;       ///< member intervals, flat
  std::vector<std::size_t> item;    ///< owning item per member
  std::vector<double> weight;       ///< per-item peak
  std::vector<double> width;        ///< per-item width
  std::vector<int> group;           ///< per-item constraint group (grouped only)
  std::vector<ScanEvent> events;
};

/// Flat-span combine: gathers the view's member intervals into scratch
/// spans, clips them against `restrict_to` elementwise, and runs the
/// event-scan core. No-filtering mode treats every window as `everything`
/// (logic constraints still apply); without constraints it sums every
/// member, whatever `restrict_to`. `width` is the widest active member. Thread-safe for distinct
/// scratch objects.
[[nodiscard]] Combined combine_flat(std::span<const Contribution> contributions,
                                    AnalysisMode mode, const Interval& restrict_to,
                                    const Constraints& constraints, CombineView view,
                                    CombineScratch& scratch);

namespace kernels {

/// Elementwise interval clip against [r.lo, r.hi] — the flat
/// IntervalSet::intersect(Interval). Slots left with lo[i] > hi[i] are
/// empty (including every slot when `r` itself is empty). Branch-free
/// min/max over contiguous doubles; the autovectorizer's bread and butter.
void clip(std::span<double> lo, std::span<double> hi, const Interval& r);

/// out[i] = hi[i] + (delay[i] + width[i]) — the right-edge extension of
/// Interval::dilated(0.0, peak_delay + width), batched, with the same
/// association: `after` is formed first, then added.
void extend_right(std::span<const double> hi, std::span<const double> delay,
                  std::span<const double> width, std::span<double> out);

/// Canonical union of arbitrary intervals, in place: sorts `members` by
/// (lo, hi), sweep-merges touching/overlapping neighbours, and rebuilds an
/// IntervalSet. Merged endpoints are min/max selections of the inputs —
/// no arithmetic — so the result is bit-identical to feeding the members
/// through repeated IntervalSet::add() in any order. Empty members
/// (lo > hi) are skipped like add() skips them.
[[nodiscard]] IntervalSet union_flat(std::vector<Interval>& members);

}  // namespace kernels

}  // namespace nw::noise
