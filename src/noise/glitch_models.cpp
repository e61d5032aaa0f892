#include "noise/glitch_models.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "parasitics/reduce.hpp"
#include "spice/cluster.hpp"

namespace nw::noise {

const char* to_string(GlitchModel m) noexcept {
  switch (m) {
    case GlitchModel::kChargeSharing: return "charge-sharing";
    case GlitchModel::kDevgan: return "devgan";
    case GlitchModel::kTwoPi: return "two-pi";
    case GlitchModel::kReducedMna: return "reduced-mna";
    case GlitchModel::kMnaExact: return "mna-exact";
  }
  return "?";
}

std::optional<GlitchModel> parse_model(std::string_view s) noexcept {
  for (const GlitchModel m : {GlitchModel::kChargeSharing, GlitchModel::kDevgan,
                              GlitchModel::kTwoPi, GlitchModel::kReducedMna,
                              GlitchModel::kMnaExact}) {
    if (s == to_string(m)) return m;
  }
  return std::nullopt;
}

// The three analytic models as elementwise span kernels — the canonical
// implementations. Slot i reads only index i of every span, so the loops
// auto-vectorize (charge-sharing/devgan fully; two-pi up to the libm
// calls). The per-scenario estimate_* wrappers below run the same loops
// with count 1: one compiled expression per formula, so a single estimate
// and the analyzer's batched estimation cannot diverge bitwise, whatever
// the compiler's FP-contraction choices. NW_KERNEL_NOINLINE keeps the wrappers
// from inlining a private copy whose late FMA formation could differ from
// the out-of-line loop.
#if defined(__GNUC__) || defined(__clang__)
#define NW_KERNEL_NOINLINE __attribute__((noinline))
#else
#define NW_KERNEL_NOINLINE
#endif

NW_KERNEL_NOINLINE
void peaks_charge_sharing(std::span<const double> r_hold,
                          std::span<const double> c_ground,
                          std::span<const double> c_couple,
                          std::span<const double> slew, double vdd,
                          std::span<double> peak, std::span<double> width,
                          std::span<double> peak_delay) {
  for (std::size_t i = 0; i < r_hold.size(); ++i) {
    const double ctot = c_couple[i] + c_ground[i];
    // The charge-shared level decays through Rh; half-peak width is the RC
    // half-life plus half the injection ramp.
    const bool live = ctot > 0.0;
    peak[i] = live ? vdd * c_couple[i] / ctot : 0.0;
    width[i] = live ? 0.693 * r_hold[i] * ctot + 0.5 * slew[i] : 0.0;
    peak_delay[i] = live ? slew[i] : 0.0;
  }
}

NW_KERNEL_NOINLINE
void peaks_devgan(std::span<const double> r_hold, std::span<const double> c_ground,
                  std::span<const double> c_couple, std::span<const double> slew,
                  double vdd, std::span<double> peak, std::span<double> width,
                  std::span<double> peak_delay) {
  for (std::size_t i = 0; i < r_hold.size(); ++i) {
    // Devgan's metric: the victim cannot exceed the IR drop of the injected
    // current Cc * dVa/dt through Rh, capped by the rail.
    peak[i] = std::min(vdd, r_hold[i] * c_couple[i] * vdd / slew[i]);
    const double tau = r_hold[i] * (c_couple[i] + c_ground[i]);
    width[i] = slew[i] + 0.693 * tau;
    peak_delay[i] = slew[i];
  }
}

NW_KERNEL_NOINLINE
void peaks_two_pi(std::span<const double> r_hold, std::span<const double> c_ground,
                  std::span<const double> c_couple, std::span<const double> slew,
                  double vdd, std::span<double> peak, std::span<double> width,
                  std::span<double> peak_delay) {
  for (std::size_t i = 0; i < r_hold.size(); ++i) {
    const double tau_x = r_hold[i] * c_couple[i];                  // injection
    const double tau_v = r_hold[i] * (c_couple[i] + c_ground[i]);  // victim pole
    if (tau_v <= 0.0) {
      peak[i] = 0.0;
      width[i] = 0.0;
      peak_delay[i] = 0.0;
      continue;
    }
    // Single-pole response to a ramp of duration tr injected through Cc:
    //   v(t) = Vdd (tau_x / tr) (1 - e^{-t/tau_v}),  t <= tr   (rising)
    //   v(t) = v(tr) e^{-(t - tr)/tau_v},            t >  tr   (decay)
    const double rise_sat = 1.0 - std::exp(-slew[i] / tau_v);
    peak[i] = std::min(vdd * (tau_x / slew[i]) * rise_sat, vdd);
    peak_delay[i] = slew[i];
    // Half-peak crossings: t1 on the rise where the saturation term reaches
    // half its final value, t2 = tr + tau_v ln 2 on the decay.
    const double half = 0.5 * rise_sat;
    const double t1 = (half < 1.0) ? -tau_v * std::log(1.0 - half) : 0.0;
    const double t2 = slew[i] + tau_v * 0.693147180559945;
    width[i] = std::max(t2 - t1, 0.0);
  }
}

namespace {

/// Runs one analytic span kernel on a single scenario.
template <typename Kernel>
GlitchEstimate estimate_one(Kernel&& kernel, const CouplingScenario& s) {
  GlitchEstimate g;
  kernel(std::span<const double>(&s.r_hold, 1), std::span<const double>(&s.c_ground, 1),
         std::span<const double>(&s.c_couple, 1), std::span<const double>(&s.slew, 1),
         s.vdd, std::span<double>(&g.peak, 1), std::span<double>(&g.width, 1),
         std::span<double>(&g.peak_delay, 1));
  return g;
}

}  // namespace

GlitchEstimate estimate_charge_sharing(const CouplingScenario& s) {
  return estimate_one(peaks_charge_sharing, s);
}

GlitchEstimate estimate_devgan(const CouplingScenario& s) {
  if (s.slew <= 0.0) throw std::invalid_argument("estimate_devgan: non-positive slew");
  return estimate_one(peaks_devgan, s);
}

GlitchEstimate estimate_two_pi(const CouplingScenario& s) {
  if (s.slew <= 0.0) throw std::invalid_argument("estimate_two_pi: non-positive slew");
  return estimate_one(peaks_two_pi, s);
}

namespace {

/// Per-node extra capacitance of `net`: load pin caps at their attachment
/// nodes plus couplings to every net except `exclude` (quiet neighbours
/// are AC ground). Unattached loads lump at the driver.
std::vector<double> extra_caps(const net::Design& design, const para::Parasitics& para,
                               NetId net, NetId exclude) {
  const para::RcNet& rc = para.net(net);
  std::vector<double> extra(rc.node_count(), 0.0);
  for (const PinId load : design.net(net).loads) {
    auto node = rc.node_of_pin(load);
    if (node >= rc.node_count()) node = 0;
    extra[node] += design.pin_cap(load);
  }
  for (const auto ci : para.couplings_of(net)) {
    const auto& cc = para.coupling(ci);
    if (cc.other_net(net) == exclude) continue;
    extra[cc.node_on(net)] += cc.c;
  }
  return extra;
}

}  // namespace

ReducedPair reduced_pair(const net::Design& design, const para::Parasitics& para,
                         NetId victim, NetId aggressor, double slew, double vdd) {
  ReducedPair p;
  p.aggressor = para::pi_model(para.net(aggressor), extra_caps(design, para, aggressor, victim));
  p.victim = para::pi_model(para.net(victim), extra_caps(design, para, victim, aggressor));
  for (const auto ci : para.couplings_of(victim)) {
    const auto& c = para.coupling(ci);
    if (c.other_net(victim) == aggressor) p.cc += c.c;
  }
  p.r_drv = spice::driver_resistance(design, aggressor, /*holding=*/false);
  p.r_hold = spice::driver_resistance(design, victim, /*holding=*/true);
  p.slew = slew;
  p.vdd = vdd;
  return p;
}

namespace {

/// Runs `estimate` for one pair, rethrowing a failure with the pair named.
template <typename Estimate>
auto named_pair(GlitchModel model, const net::Design& design, const MnaPair& pair,
                Estimate&& estimate) {
  const auto named = [&](const std::exception& e) {
    return std::string(to_string(model)) + ": victim net '" +
           design.net(pair.victim).name + "', aggressor net '" +
           design.net(pair.aggressor).name + "': " + e.what();
  };
  try {
    return estimate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(named(e));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(named(e));
  }
}

}  // namespace

void estimate_mna_batch(GlitchModel model, const net::Design& design,
                        const para::Parasitics& para, std::span<const MnaPair> pairs,
                        double vdd, const spice::TranOptions& tran,
                        std::span<GlitchEstimate> out) {
  if (model != GlitchModel::kReducedMna && model != GlitchModel::kMnaExact) {
    throw std::invalid_argument("estimate_mna_batch: not an MNA model");
  }
  if (out.size() != pairs.size()) throw std::invalid_argument("estimate_mna_batch: size");
  if (model == GlitchModel::kReducedMna) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const MnaPair& p = pairs[i];
      const spice::GlitchMeasure m = named_pair(model, design, p, [&] {
        return measure_reduced(reduced_pair(design, para, p.victim, p.aggressor, p.slew, vdd));
      });
      out[i] = GlitchEstimate{m.peak, m.width, m.t_peak};
    }
    return;
  }
  std::vector<spice::TranSystem> systems;
  systems.reserve(pairs.size());
  for (const MnaPair& p : pairs) {
    spice::ClusterSpec spec;
    spec.victim = p.victim;
    spec.vdd = vdd;
    spec.aggressors.push_back({p.aggressor, /*start=*/0.0, p.slew, /*rising=*/true});
    const spice::Cluster cl = spice::build_cluster(design, para, spec);
    // Extend the configured window to the pair's settle time, injection
    // plus twelve holding time constants (at least 5 ps each), but never
    // past the step bound (kept two steps short of it, so rounding in
    // ceil(t_stop / dt) cannot cross it).
    const double tau =
        reduced_pair(design, para, p.victim, p.aggressor, p.slew, vdd).hold_tau();
    const double settle = p.slew + 12.0 * std::max(tau, 5e-12);
    const double longest = tran.dt * static_cast<double>(spice::kMaxSteps - 2);
    const spice::TranOptions window{std::max(tran.t_stop, std::min(settle, longest)),
                                    tran.dt};
    systems.push_back(named_pair(model, design, p, [&] {
      return spice::TranSystem(cl.circuit, window, cl.victim_probe);
    }));
  }
  spice::simulate_batch(systems, [&](std::size_t s, std::span<const double> samples) {
    const spice::GlitchMeasure m =
        spice::measure_glitch(samples, systems[s].dt(), /*baseline=*/0.0);
    out[s] = GlitchEstimate{m.peak, m.width, m.t_peak};
  });
}

GlitchEstimate estimate_reduced(const net::Design& design, const para::Parasitics& para,
                                NetId victim, NetId aggressor, double slew,
                                double vdd) {
  const MnaPair pair{victim, aggressor, slew};
  GlitchEstimate g;
  estimate_mna_batch(GlitchModel::kReducedMna, design, para, {&pair, 1}, vdd, {}, {&g, 1});
  return g;
}

GlitchEstimate estimate_mna(const net::Design& design, const para::Parasitics& para,
                            NetId victim, NetId aggressor, double slew, double vdd,
                            const spice::TranOptions& tran) {
  const MnaPair pair{victim, aggressor, slew};
  GlitchEstimate g;
  estimate_mna_batch(GlitchModel::kMnaExact, design, para, {&pair, 1}, vdd, tran, {&g, 1});
  return g;
}

spice::Waveform synthesize_glitch(const GlitchEstimate& estimate, double t_start,
                                  double baseline, double dt, double t_stop) {
  if (dt <= 0.0 || t_stop <= 0.0) {
    throw std::invalid_argument("synthesize_glitch: bad time grid");
  }
  const auto n = static_cast<std::size_t>(std::ceil(t_stop / dt)) + 1;
  std::vector<double> samples(n, baseline);
  if (estimate.peak > 0.0) {
    const double t_rise = std::max(estimate.peak_delay, dt);
    // Half-peak width = t_rise/2 (rise side) + tau ln2 (decay side).
    const double tau =
        std::max((estimate.width - 0.5 * t_rise) / 0.693147180559945, 0.25 * dt);
    const double t_peak = t_start + t_rise;
    for (std::size_t k = 0; k < n; ++k) {
      const double t = dt * static_cast<double>(k);
      if (t <= t_start) continue;
      if (t <= t_peak) {
        samples[k] = baseline + estimate.peak * (t - t_start) / t_rise;
      } else {
        samples[k] = baseline + estimate.peak * std::exp(-(t - t_peak) / tau);
      }
    }
  }
  return spice::Waveform(0.0, dt, std::move(samples));
}

CouplingScenario scenario_for(const net::Design& design, const para::Parasitics& para,
                              NetId victim, NetId aggressor, double aggressor_slew,
                              double vdd) {
  CouplingScenario s;
  s.vdd = vdd;
  // The driver ramp degrades over the aggressor's own RC before it reaches
  // the coupling caps: fold the aggressor time constant (drive resistance x
  // half the distributed load, plus half the wire's own RC) into the edge.
  const double r_agg = spice::driver_resistance(design, aggressor, /*holding=*/false);
  double c_agg = para.total_cap(aggressor);
  for (const PinId load : design.net(aggressor).loads) c_agg += design.pin_cap(load);
  const double tau_agg =
      r_agg * 0.5 * c_agg + 0.5 * para.net(aggressor).total_res() * 0.5 * c_agg;
  const double degraded = 2.2 * tau_agg;
  s.slew = std::sqrt(aggressor_slew * aggressor_slew + degraded * degraded);
  // The victim's holding impedance at the coupling points includes part of
  // the victim wire resistance between the holder and the coupled nodes.
  s.r_hold = spice::driver_resistance(design, victim, /*holding=*/true) +
             0.5 * para.net(victim).total_res();

  double c_to_aggressor = 0.0;
  double c_other_coupling = 0.0;
  for (const auto ci : para.couplings_of(victim)) {
    const auto& cc = para.coupling(ci);
    if (cc.other_net(victim) == aggressor) {
      c_to_aggressor += cc.c;
    } else {
      c_other_coupling += cc.c;  // quiet neighbours act as grounded cap
    }
  }
  s.c_couple = c_to_aggressor;

  double c_pins = 0.0;
  for (const PinId load : design.net(victim).loads) c_pins += design.pin_cap(load);
  s.c_ground = para.net(victim).total_ground_cap() + c_other_coupling + c_pins;
  return s;
}

CouplingScenario bound_scenario_for(const net::Design& design,
                                    const para::Parasitics& para, NetId victim,
                                    NetId aggressor, double aggressor_slew,
                                    double vdd) {
  CouplingScenario s = scenario_for(design, para, victim, aggressor, aggressor_slew, vdd);
  s.slew = aggressor_slew;
  s.r_hold = spice::driver_resistance(design, victim, /*holding=*/true) +
             para.net(victim).total_res();
  return s;
}

}  // namespace nw::noise
