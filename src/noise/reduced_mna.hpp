// The reduced-MNA glitch model, solved in closed form.
//
// One victim/aggressor pair reduces to at most four unknown node voltages:
// the aggressor pi model (a1 - r - a2) behind its driver resistance, the
// victim pi model (v1 - r - v2) held through its holding resistance, and
// the coupling capacitance split half onto the near ends (a1-v1) and half
// onto the far ends (a2-v2). The aggressor driver ramps 0 -> vdd over the
// slew; a 0-ohm driver is an ideal source on a1, a 0-ohm holder pins v1 at
// 0 V. The glitch is measured at v2.
//
// With the ramp node and any pinned node eliminated, the circuit is
//   C x' + G x = g u(t) + c u'(t),
// G the conductances among the unknowns, C their capacitances, g and c the
// conductances and capacitances to the ramp node u. Every unknown has a
// resistive path to a known node, so G is SPD: with G = L L^T and the
// symmetric eigendecomposition L^-1 C L^-T = Q diag(mu) Q^T, the modes
// z = Q^T L^T x are independent first-order lags mu_i z_i' + z_i = f_i(t).
// A node with only coupling caps can make C singular; such a mode has
// mu_i = 0 and is algebraic (z_i = f_i), with no u' term, since a null
// vector of C is zero on every node capacitively tied to a known one. The
// victim has no conductive path to the aggressor, so the probe returns to
// 0 V after the ramp: on the ramp and after it, the probe is a constant
// plus at most four decaying exponentials. The peak lies at the end of the ramp or at a root of the
// derivative, and the half-peak width is summed between the roots of
// v - peak/2; each root is bracketed exactly (DESIGN.md §4.1).
#pragma once

#include "parasitics/reduce.hpp"
#include "spice/waveform.hpp"

namespace nw::noise {

/// The reduced circuit of one victim/aggressor pair, as values. Both pi
/// models ground every other coupling of their net (quiet neighbours are
/// AC ground); a pi model with r == 0 has no far node.
struct ReducedPair {
  para::PiModel aggressor;
  para::PiModel victim;
  double cc = 0.0;      ///< coupling between the two nets [F], half near, half far
  double r_drv = 0.0;   ///< aggressor driver resistance [ohm]; 0: ideal ramp on a1
  double r_hold = 0.0;  ///< victim holding resistance [ohm]; 0: v1 pinned at 0 V
  double slew = 0.0;    ///< aggressor ramp time [s]
  double vdd = 0.0;     ///< aggressor swing [V]

  /// The victim's holding time constant, which sizes the mna-exact window.
  [[nodiscard]] double hold_tau() const noexcept {
    return r_hold * (cc + victim.total_cap());
  }
};

/// The glitch at v2 of the pair's circuit, solved exactly: peak, the time
/// of the peak from the start of the ramp, and the time spent above half
/// the peak (the measures spice::measure_glitch takes from a sampled run).
/// A pair with no coupling has no glitch. Throws std::invalid_argument for
/// a non-positive or non-finite slew and std::runtime_error if the circuit
/// has no solution or the solution is not finite.
[[nodiscard]] spice::GlitchMeasure measure_reduced(const ReducedPair& p);

}  // namespace nw::noise
