// The one per-analysis structure of the staged analysis pipeline.
//
// Everything the stages read — coupling-graph adjacency, per-net load
// caps, the levelized propagation schedule, endpoint sensitivity windows,
// the aggressors' switching windows and the packed per-pair estimation
// operands — lives here as flat, contiguous slabs, built once per analyze()
// call straight from the design, parasitics and STA result, and handed to
// every stage and every worker thread.
//
// Two parts are mutable. The switching-window slabs are the refinement
// loop's state: each pass rewrites them in place from the STA baseline
// (sta::Result::nets[i].window) plus the current glitch width. The
// per-pair operand slabs are packed lazily, on first estimation
// (incremental runs pack only dirty rows — clean rows reuse previous
// contributions and never read their slots).
//
// Memory accounting: every slab allocates through obs::TrackedAlloc. What
// is derived once from design, parasitics and STA is charged to the
// "analysis_context" account; the per-pair operand slabs and the window
// slabs to "kernel_buffers".
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/design.hpp"
#include "obs/memtrack.hpp"
#include "parasitics/rcnet.hpp"
#include "sta/sta.hpp"
#include "util/interval.hpp"

namespace nw::util {
class Executor;
}

namespace nw::noise {

struct Options;

/// Slab charged to the "analysis_context" memory account.
template <class T>
using CtxVec = std::vector<T, obs::TrackedAlloc<T, obs::MemAccountId::kAnalysisContext>>;

/// Slab charged to the "kernel_buffers" memory account.
template <class T>
using KbVec = std::vector<T, obs::TrackedAlloc<T, obs::MemAccountId::kKernelBuffers>>;

/// A sequential endpoint to check: one data pin of one sequential cell,
/// with its sampling-sensitivity window precomputed from the clock
/// arrival, cell setup/hold, and clock options.
struct EndpointRef {
  InstId inst;
  PinId pin;         ///< the data pin itself
  NetId net;         ///< the net it samples
  Interval sensitivity;
};

struct AnalysisContext {
  double vdd = 0.0;

  // --- CSR aggressor adjacency (victim-major; row vi = net vi) ---
  // Per victim, the coupling caps to each aggressor summed in
  // Parasitics::couplings_of() order, kept when the sum reaches
  // Options::min_coupling_cap, and sorted by aggressor id — so estimation
  // order (and with it contribution order and scan-line tie-breaking) is
  // deterministic.
  CtxVec<std::uint32_t> agg_offsets;  ///< net_count+1 row starts
  CtxVec<NetId> agg_net;              ///< aggressor id per pair slot
  CtxVec<double> agg_cap;             ///< summed coupling per pair slot [F]
  std::size_t pairs_filtered_cap = 0;  ///< pairs dropped by the threshold

  /// Total capacitive load a net presents to its driver (ground + coupling
  /// + receiver pin caps) — the gate-delay lookup load during propagation.
  CtxVec<double> load_cap;

  /// Nets driven by input ports: finalized before any gate level runs.
  CtxVec<NetId> port_nets;

  // --- levelized propagation schedule (level-major "slab position") ---
  // Level 0 holds every sequential instance (their outputs depend on no
  // combinational fanin — Q noise is injected-only); level L >= 1 holds
  // combinational instances whose deepest combinational fanin sits at
  // level L-1, in STA's topological order (sta::Result::order). Instances
  // within a level touch disjoint nets and may run in parallel.
  CtxVec<std::uint32_t> level_offsets;  ///< levels+1 starts into the slabs
  CtxVec<const lib::Cell*> slab_cell;
  CtxVec<std::uint8_t> slab_seq;        ///< 1 = sequential cell
  CtxVec<std::uint32_t> in_offsets;     ///< slab+1: CSR of input nets
  CtxVec<NetId> in_net;                 ///< valid input nets, pin order
  CtxVec<std::uint32_t> out_offsets;    ///< slab+1: CSR of output nets
  CtxVec<NetId> out_net;                ///< valid output nets, pin order

  /// Sequential endpoints in deterministic (instance, pin) order.
  CtxVec<EndpointRef> endpoints;

  // --- mutable slabs ---
  /// Current pass's switching window per net: the STA window, inflated in
  /// place by refinement. Empty windows keep their lo > hi encoding.
  KbVec<double> switch_lo, switch_hi;
  /// Aggressor slew after the STA/default/floor rule, slot-parallel to
  /// agg_net — the raw input the MNA models take.
  KbVec<double> pair_slew;
  /// scenario_for()'s electrical abstract per pair slot, packed only for
  /// the analytic models (the MNA models rebuild circuits per pair).
  KbVec<double> sc_r_hold, sc_c_ground, sc_c_couple, sc_slew;

  [[nodiscard]] std::size_t net_count() const noexcept { return load_cap.size(); }
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_offsets.size() - 1;
  }
  [[nodiscard]] std::size_t level_width(std::size_t level) const noexcept {
    return level_offsets[level + 1] - level_offsets[level];
  }

  /// Derive the context. `sta_result` must match the design (checked).
  [[nodiscard]] static AnalysisContext build(const net::Design& design,
                                             const para::Parasitics& para,
                                             const sta::Result& sta_result,
                                             const Options& options);

  /// Pack per-pair estimation operands: the slew rule for every pair, plus
  /// scenario_for()'s fields for analytic models. `dirty == nullptr` packs
  /// every row; otherwise only rows with (*dirty)[vi] != 0. Rows are
  /// independent; parallelized over victims on `exec`. Operands depend
  /// only on design/parasitics/STA state, never on refinement windows, so
  /// one pack per context suffices (see scenarios_packed()).
  void pack_scenarios(const net::Design& design, const para::Parasitics& para,
                      const sta::Result& sta, const Options& opt,
                      const std::vector<char>* dirty, util::Executor& exec);

  [[nodiscard]] bool scenarios_packed() const noexcept { return packed_; }

  /// Incremental-invalidation closure: the victims whose injected-noise
  /// estimates a change to `changed` nets can affect — the changed nets
  /// themselves plus every net coupled to one through `para` (the raw
  /// coupling incidence, not the threshold-filtered adjacency, so a cap
  /// crossing min_coupling_cap in either direction still dirties its
  /// victim). Returns a sorted, duplicate-free net list. Throws
  /// std::invalid_argument naming the offending id when a changed net is
  /// outside this context's design.
  [[nodiscard]] std::vector<NetId> dirty_closure(const para::Parasitics& para,
                                                 std::span<const NetId> changed) const;

 private:
  bool packed_ = false;
};

}  // namespace nw::noise
