// The reduced-MNA circuit as a SPICE netlist, stepped by the transient
// engine: the oracle noise::measure_reduced's closed form is checked
// against. It stamps the same noise::ReducedPair the closed form solves,
// so the two cannot describe different circuits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "noise/reduced_mna.hpp"
#include "spice/circuit.hpp"
#include "spice/transient.hpp"

namespace nw::ref {

/// The pair's circuit, the far victim node to probe and the window the
/// stepped model ran: injection plus twelve holding time constants (at
/// least 5 ps each), at a fiftieth of the shorter of the slew and the
/// holding time constant (at least 0.05 ps).
struct ReducedCircuit {
  spice::Circuit circuit;
  std::size_t probe = 0;
  spice::TranOptions tran;
};

/// Stamps `p`: the aggressor ramp behind r_drv (0 ohm: on a1 directly),
/// the aggressor pi a1 - r - a2, the victim pi v1 - r - v2 held through
/// r_hold (0 ohm: v1 pinned at 0 V by a source), the coupling half on
/// a1-v1 and half on a2-v2. Only positive capacitances are stamped.
[[nodiscard]] ReducedCircuit reduced_circuit(const noise::ReducedPair& p);

/// One stepped run's glitch and the probe near a chosen time.
struct SteppedGlitch {
  spice::GlitchMeasure measure;
  double near = 0.0;  ///< the larger |probe| of the two samples around the time asked for
};

/// The probe glitch of each pair, from one batched stepped run of every
/// reduced_circuit(pairs[i]) over its window tran[i], and the probe near
/// time at[i].
[[nodiscard]] std::vector<SteppedGlitch> stepped_glitches(
    std::span<const noise::ReducedPair> pairs, std::span<const spice::TranOptions> tran,
    std::span<const double> at);

/// The fastest and slowest time constants of the pair's circuit: the
/// smallest positive and the largest mu of the generalized eigenproblem
/// C x = mu G x over its unknowns (0 when there are none). A mode below
/// 1e-9 of the slowest counts as mu = 0.
struct TimeConstants {
  double fastest = 0.0;
  double slowest = 0.0;
};
[[nodiscard]] TimeConstants time_constants(const noise::ReducedPair& p);

}  // namespace nw::ref
