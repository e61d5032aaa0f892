// Crosstalk delay impact ("noise-on-delay").
//
// A glitch injected while the victim itself is transitioning does not
// cause a functional upset — it shifts the victim's edge. First-order
// model (the standard signoff bump model): an aligned aggressor bump of
// peak dV stretches (or shrinks) the victim transition by
//
//     delta_d = (dV / Vdd) * t_slew(victim).
//
// The windows matter here exactly as for functional noise: only noise
// whose window overlaps the victim's *own switching window* can affect
// its delay. Without windows, every aggressor is assumed to align with
// the victim edge — the pessimism this pass quantifies.
#pragma once

#include <vector>

#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "sta/sta.hpp"

namespace nw::noise {

struct DelayImpact {
  double peak_during_transition = 0.0;  ///< worst aligned noise [V]
  double delta_delay = 0.0;             ///< edge shift [s]
};

struct DelayImpactSummary {
  std::vector<DelayImpact> nets;  ///< indexed by NetId
  double total_delta = 0.0;       ///< sum over nets [s]
  double max_delta = 0.0;         ///< worst single net [s]
  std::size_t affected_nets = 0;  ///< nets with non-zero impact
};

/// Compute per-net delay impact from an existing noise Result. The victim
/// alignment window is its switching window dilated by its slowest slew.
/// In kNoFiltering mode every contribution aligns with the edge.
[[nodiscard]] DelayImpactSummary compute_delay_impact(const net::Design& design,
                                                      const sta::Result& sta_result,
                                                      const Result& noise_result,
                                                      const Options& options);

}  // namespace nw::noise
