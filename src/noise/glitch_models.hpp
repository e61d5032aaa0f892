// Per-aggressor glitch estimation on a quiet victim.
//
// The canonical scenario: the victim is held at its quiet level through the
// driver's holding resistance Rh; one aggressor ramps through the coupling
// capacitance Cc; the rest of the victim's load is the grounded Cg. Four
// models of increasing fidelity/cost estimate the resulting glitch:
//
//   kChargeSharing  instantaneous-aggressor limit: Vp = Vdd Cc/(Cc+Cg).
//                   Cheap, pessimistic for slow aggressors.
//   kDevgan         Devgan's upper bound: Vp = min(Vdd, Rh Cc Vdd / tr).
//                   Provably >= the exact linear response (tested).
//   kTwoPi          dominant-pole solution of the reduced (pi-model)
//                   network; the workhorse model with peak AND width.
//   kReducedMna     O'Brien–Savarino pi models of victim and aggressor
//                   joined by the lumped coupling, solved by the MNA
//                   transient engine on a 5-node circuit. Near-golden
//                   accuracy at a fixed small cost per pair.
//   kMnaExact       full cluster MNA transient measured with
//                   spice::measure_glitch. Slowest, used for accuracy
//                   experiments and high-effort signoff mode.
//
// The two transient-backed models estimate pairs in batches
// (estimate_mna_batch): every pair's circuit is factored, and pairs whose
// factors share one structure step together in the transient engine's
// lanes (spice/transient.hpp), each bit-identical to a run on its own.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "netlist/design.hpp"
#include "parasitics/rcnet.hpp"
#include "spice/transient.hpp"
#include "util/ids.hpp"

namespace nw::noise {

enum class GlitchModel { kChargeSharing, kDevgan, kTwoPi, kReducedMna, kMnaExact };

[[nodiscard]] const char* to_string(GlitchModel m) noexcept;
/// The model whose to_string is `s`; nullopt for any other string.
[[nodiscard]] std::optional<GlitchModel> parse_model(std::string_view s) noexcept;

/// Electrical abstract of one victim/aggressor pair.
struct CouplingScenario {
  double r_hold = 1e3;   ///< victim holding resistance [ohm]
  double c_ground = 0.0; ///< victim grounded cap (everything but Cc) [F]
  double c_couple = 0.0; ///< coupling cap to the switching aggressor [F]
  double slew = 30e-12;  ///< aggressor transition time [s]
  double vdd = 1.2;      ///< aggressor swing [V]
};

/// An estimated glitch.
struct GlitchEstimate {
  double peak = 0.0;        ///< [V]
  double width = 0.0;       ///< duration above half peak [s]
  double peak_delay = 0.0;  ///< peak time relative to aggressor edge start [s]
};

[[nodiscard]] GlitchEstimate estimate_charge_sharing(const CouplingScenario& s);
[[nodiscard]] GlitchEstimate estimate_devgan(const CouplingScenario& s);
[[nodiscard]] GlitchEstimate estimate_two_pi(const CouplingScenario& s);

/// Flat span variants of the three analytic models — the elementwise
/// estimation kernels the analyzer runs over CSR rows of scenario operands
/// (noise/kernels.hpp). All spans share one length; slot i is the
/// scenario (r_hold[i], c_ground[i], c_couple[i], slew[i], vdd). These are
/// the CANONICAL implementations: the per-scenario estimate_* functions
/// above call them with count-1 spans, so both execute the same compiled
/// floating-point expressions and stay bit-identical even under FP
/// contraction (-ffp-contract=fast). Callers guarantee slew > 0
/// for devgan/two-pi (the wrappers keep the throwing checks).
void peaks_charge_sharing(std::span<const double> r_hold,
                          std::span<const double> c_ground,
                          std::span<const double> c_couple,
                          std::span<const double> slew, double vdd,
                          std::span<double> peak, std::span<double> width,
                          std::span<double> peak_delay);
void peaks_devgan(std::span<const double> r_hold, std::span<const double> c_ground,
                  std::span<const double> c_couple, std::span<const double> slew,
                  double vdd, std::span<double> peak, std::span<double> width,
                  std::span<double> peak_delay);
void peaks_two_pi(std::span<const double> r_hold, std::span<const double> c_ground,
                  std::span<const double> c_couple, std::span<const double> slew,
                  double vdd, std::span<double> peak, std::span<double> width,
                  std::span<double> peak_delay);

/// Dispatch over the three analytic models (not kReducedMna/kMnaExact,
/// which need the design context).
[[nodiscard]] GlitchEstimate estimate(GlitchModel model, const CouplingScenario& s);

/// Exact: build the victim/aggressor cluster and simulate, recording only
/// the victim probe. The run lasts max(tran.t_stop, slew + 12 tau) at
/// tran.dt, tau the victim's holding time constant as reduced_circuit
/// computes it, so a slow aggressor's glitch is not cut off; the extension
/// alone never takes a run past spice::kMaxSteps. Errors (a step count
/// above spice::kMaxSteps, a singular circuit) are rethrown with the victim
/// and aggressor net names. A batch of one (estimate_mna_batch).
[[nodiscard]] GlitchEstimate estimate_mna(const net::Design& design,
                                          const para::Parasitics& para, NetId victim,
                                          NetId aggressor, double slew, double vdd,
                                          const spice::TranOptions& tran);

/// The circuit estimate_reduced simulates for one pair: the victim and
/// aggressor pi models joined by the lumped coupling, the far victim node
/// to probe and the transient settings sized to the pair's time constants.
/// A 0-ohm driver is an ideal source: the holder pins the victim root at
/// 0 V, the aggressor ramp drives its root directly.
struct ReducedCircuit {
  spice::Circuit circuit;
  std::size_t probe = 0;
  spice::TranOptions tran;
};

/// Builds the reduced circuit; nullopt when the pair shares no coupling
/// capacitance.
[[nodiscard]] std::optional<ReducedCircuit> reduced_circuit(
    const net::Design& design, const para::Parasitics& para, NetId victim,
    NetId aggressor, double slew, double vdd);

/// Reduced-order: simulates reduced_circuit(), recording only its probe.
/// Errors are rethrown with the net names, as estimate_mna does. A batch of
/// one (estimate_mna_batch).
[[nodiscard]] GlitchEstimate estimate_reduced(const net::Design& design,
                                              const para::Parasitics& para,
                                              NetId victim, NetId aggressor,
                                              double slew, double vdd);

/// One victim/aggressor pair of a transient-backed estimate.
struct MnaPair {
  NetId victim;
  NetId aggressor;
  double slew = 0.0;  ///< aggressor transition time [s]
};

/// Estimates every pair under `model` (kReducedMna or kMnaExact; `tran`
/// only serves kMnaExact) into out[i]. Builds and factors each pair's
/// circuit in order, then steps all of them together
/// (spice::simulate_batch) and measures each probe waveform as its run
/// finishes, so no batch holds more than one waveform per lane. out[i]
/// equals estimate_reduced / estimate_mna on pair i bit for bit, and an
/// error names the first pair, in order, whose circuit fails.
void estimate_mna_batch(GlitchModel model, const net::Design& design,
                        const para::Parasitics& para, std::span<const MnaPair> pairs,
                        double vdd, const spice::TranOptions& tran,
                        std::span<GlitchEstimate> out);

/// Synthesize the canonical glitch waveform an estimate describes: linear
/// rise to `peak` over `peak_delay`, then exponential decay whose time
/// constant is chosen so the half-peak width matches `width`. Used for
/// waveform-shape comparisons against golden transients and for report
/// plots. The glitch starts at `t_start` on top of `baseline`.
[[nodiscard]] spice::Waveform synthesize_glitch(const GlitchEstimate& estimate,
                                                double t_start, double baseline,
                                                double dt, double t_stop);

/// Build the CouplingScenario for a victim/aggressor pair from the design
/// (holding resistance, grounded cap, summed coupling, STA slew). The slew
/// is degraded by the aggressor's own RC and the holding resistance
/// includes half the victim wire — the *accuracy* abstraction.
[[nodiscard]] CouplingScenario scenario_for(const net::Design& design,
                                            const para::Parasitics& para, NetId victim,
                                            NetId aggressor, double aggressor_slew,
                                            double vdd);

/// The *bounding* abstraction: raw driver slew (an aggressor node can never
/// ramp faster than its source) and the full victim wire resistance (no
/// victim node is further from the holder). estimate_devgan() on this
/// scenario provably upper-bounds the exact linear response.
[[nodiscard]] CouplingScenario bound_scenario_for(const net::Design& design,
                                                  const para::Parasitics& para,
                                                  NetId victim, NetId aggressor,
                                                  double aggressor_slew, double vdd);

}  // namespace nw::noise
