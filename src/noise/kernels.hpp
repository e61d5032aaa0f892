// Structure-of-arrays kernel buffers and the flat analysis kernels.
//
// The analysis stages (noise/analyzer.cpp) stream over flat, contiguous
// slabs instead of the context's pointer-rich structures: KernelBuffers
// holds the CSR aggressor adjacency, packed per-pair estimation operands,
// flat switching windows and per-level instance slabs, derived once per
// analysis from the AnalysisContext. Values the stages read only once per
// use (endpoint sensitivities, gate loads) stay in the context.
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
//
// The per-pair operands are packed lazily, on first estimation (incremental
// runs pack only dirty rows — clean rows reuse previous contributions and
// never read their slots).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "noise/context.hpp"
#include "obs/memtrack.hpp"
#include "util/interval.hpp"
#include "util/scanline.hpp"

namespace nw::util {
class Executor;
}

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

/// Kernel-buffer slab storage: every slab allocates through the tracking
/// allocator bound to the "kernel_buffers" memory account, so the CSR +
/// scenario footprint shows up exactly (current/peak/allocs/frees) in the
/// schema-v5 stats "memory" section. Stateless allocator — the vectors
/// move/swap exactly like std::vector.
template <class T>
using KbVec = std::vector<T, obs::TrackedAlloc<T, obs::MemAccountId::kKernelBuffers>>;

/// Flat copy of the AnalysisContext structures the stage kernels stream,
/// plus packed per-pair estimation operands. Immutable structure after
/// build(); set_switch_windows() and pack_scenarios() fill the mutable
/// slabs (per refinement pass and lazily-once respectively).
struct KernelBuffers {
  double vdd = 0.0;

  // --- CSR aggressor adjacency (victim-major; row vi = net vi) ---
  KbVec<std::uint32_t> agg_offsets;  ///< net_count+1 row starts
  KbVec<NetId> agg_net;              ///< aggressor id per pair slot

  // --- per-pair estimation operands (slot-parallel to agg_net) ---
  /// Aggressor slew after the STA/default/floor rule — the raw input the
  /// MNA models take. Packed by pack_scenarios() for every model.
  KbVec<double> pair_slew;
  /// scenario_for()'s electrical abstract, packed only for the analytic
  /// models (the MNA models rebuild circuits from the design per pair).
  KbVec<double> sc_r_hold, sc_c_ground, sc_c_couple, sc_slew;

  // --- flat per-net arrays ---
  KbVec<double> switch_lo, switch_hi;  ///< current pass's windows

  // --- per-level contiguous instance slabs (level-major "slab position") ---
  KbVec<std::uint32_t> level_offsets;  ///< levels+1 starts into slabs
  KbVec<const lib::Cell*> slab_cell;
  KbVec<std::uint8_t> slab_seq;        ///< 1 = sequential cell
  KbVec<std::uint32_t> in_offsets;     ///< slab+1: CSR of input nets
  KbVec<NetId> in_net;                 ///< valid input nets, pin order
  KbVec<std::uint32_t> out_offsets;    ///< slab+1: CSR of output nets
  KbVec<NetId> out_net;                ///< valid output nets, pin order

  /// Derive every structural slab from the context (O(nets + pairs +
  /// instances); no floating-point transformation, values are copied).
  [[nodiscard]] static KernelBuffers build(const net::Design& design,
                                           const AnalysisContext& ctx);

  /// Re-gather the (possibly refinement-inflated) switching windows into
  /// the flat lo/hi arrays. Called once per estimation pass. Empty windows
  /// keep their lo > hi encoding.
  void set_switch_windows(std::span<const Interval> windows);

  /// Pack per-pair estimation operands: the slew rule for every pair, plus
  /// scenario_for()'s fields for analytic models. `dirty == nullptr` packs
  /// every row; otherwise only rows with (*dirty)[vi] != 0 (clean victims
  /// reuse previous contributions and never read their slots). Rows are
  /// independent; parallelized over victims on `exec`. Idempotent per
  /// Pipeline via scenarios_packed() — operands depend only on immutable
  /// design/parasitics/STA state, never on refinement windows.
  void pack_scenarios(const net::Design& design, const para::Parasitics& para,
                      const sta::Result& sta, const Options& opt,
                      const std::vector<char>* dirty, util::Executor& exec);

  [[nodiscard]] bool scenarios_packed() const noexcept { return packed_; }

 private:
  bool packed_ = false;
};

}  // namespace nw::noise
