#include "noise/reduced_circuit.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/dense.hpp"

namespace nw::ref {

ReducedCircuit reduced_circuit(const noise::ReducedPair& p) {
  spice::Circuit ckt;
  const std::size_t src = p.r_drv > 0.0 ? ckt.add_node("src") : 0;
  const std::size_t a1 = ckt.add_node("a1");
  const std::size_t a2 = p.aggressor.r > 0.0 ? ckt.add_node("a2") : a1;
  const std::size_t v1 = ckt.add_node("v1");
  const std::size_t v2 = p.victim.r > 0.0 ? ckt.add_node("v2") : v1;

  const spice::Pwl ramp = spice::Pwl::ramp(0.0, p.slew, 0.0, p.vdd);
  if (p.r_drv > 0.0) {
    ckt.add_vsrc(src, 0, ramp);
    ckt.add_res(src, a1, p.r_drv);
  } else {
    ckt.add_vsrc(a1, 0, ramp);
  }
  if (p.aggressor.c_near > 0.0) ckt.add_cap(a1, 0, p.aggressor.c_near);
  if (a2 != a1) {
    ckt.add_res(a1, a2, p.aggressor.r);
    if (p.aggressor.c_far > 0.0) ckt.add_cap(a2, 0, p.aggressor.c_far);
  }
  if (p.r_hold > 0.0) {
    ckt.add_res(v1, 0, p.r_hold);
  } else {
    ckt.add_vsrc(v1, 0, spice::Pwl::dc(0.0));
  }
  if (p.victim.c_near > 0.0) ckt.add_cap(v1, 0, p.victim.c_near);
  if (v2 != v1) {
    ckt.add_res(v1, v2, p.victim.r);
    if (p.victim.c_far > 0.0) ckt.add_cap(v2, 0, p.victim.c_far);
  }
  ckt.add_cap(a1, v1, 0.5 * p.cc);
  ckt.add_cap(a2, v2, 0.5 * p.cc);  // a1-v1 again when neither far node exists

  const double tau = p.hold_tau();
  const double t_stop = p.slew + 12.0 * std::max(tau, 5e-12);
  const double dt = std::max(std::min(p.slew, tau) / 50.0, 5e-14);
  return ReducedCircuit{std::move(ckt), v2, {t_stop, dt}};
}

std::vector<SteppedGlitch> stepped_glitches(std::span<const noise::ReducedPair> pairs,
                                            std::span<const spice::TranOptions> tran,
                                            std::span<const double> at) {
  std::vector<spice::TranSystem> systems;
  systems.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const ReducedCircuit rc = reduced_circuit(pairs[i]);
    systems.emplace_back(rc.circuit, tran[i], rc.probe);
  }
  std::vector<SteppedGlitch> out(pairs.size());
  spice::simulate_batch(systems, [&](std::size_t i, std::span<const double> samples) {
    out[i].measure = spice::measure_glitch(samples, tran[i].dt, /*baseline=*/0.0);
    const auto k = std::min(static_cast<std::size_t>(std::max(at[i] / tran[i].dt, 0.0)),
                            samples.size() - 1);
    out[i].near = std::max(std::abs(samples[k]),
                           std::abs(samples[std::min(k + 1, samples.size() - 1)]));
  });
  return out;
}

TimeConstants time_constants(const noise::ReducedPair& p) {
  const ReducedCircuit rc = reduced_circuit(p);
  const spice::Circuit& ckt = rc.circuit;
  // Unknowns: every node but ground and the source-driven ones.
  std::vector<bool> known(ckt.node_count(), false);
  known[0] = true;
  for (const auto& v : ckt.vsources()) known[v.pos] = true;
  std::vector<std::size_t> index(ckt.node_count(), 0);
  std::size_t n = 0;
  for (std::size_t k = 0; k < ckt.node_count(); ++k) {
    if (!known[k]) index[k] = n++;
  }
  if (n == 0) return {};
  la::Matrix g(n, n);
  la::Matrix c(n, n);
  const auto stamp = [&](la::Matrix& m, std::size_t a, std::size_t b, double v) {
    if (!known[a]) m(index[a], index[a]) += v;
    if (!known[b]) m(index[b], index[b]) += v;
    if (!known[a] && !known[b]) {
      m(index[a], index[b]) -= v;
      m(index[b], index[a]) -= v;
    }
  };
  for (const auto& r : ckt.resistors()) stamp(g, r.a, r.b, 1.0 / r.r);
  for (const auto& cap : ckt.capacitors()) stamp(c, cap.a, cap.b, cap.c);

  // Sylvester's law of inertia: the number of mu below sigma is the number
  // of negative pivots of the LDL^T factorization of C - sigma G.
  const auto below = [&](double sigma) {
    la::Matrix a = c - g * sigma;
    std::size_t negative = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const double d = a(k, k);
      negative += d < 0.0 ? 1 : 0;
      for (std::size_t i = k + 1; i < n; ++i) {
        const double l = a(i, k) / d;
        for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= l * a(k, j);
      }
    }
    return negative;
  };
  // Bisects on a log scale for the sigma at which below() first exceeds
  // `count`, within [lo, hi].
  const auto edge = [&](std::size_t count, double lo, double hi) {
    for (int it = 0; it < 200; ++it) {
      const double mid = std::sqrt(lo * hi);
      (below(mid) > count ? hi : lo) = mid;
    }
    return hi;
  };
  TimeConstants t;
  t.slowest = edge(n - 1, 1e-30, 1.0);
  const std::size_t zero_modes = below(1e-9 * t.slowest);
  t.fastest = zero_modes == n ? 0.0 : edge(zero_modes, 1e-9 * t.slowest, t.slowest * 2.0);
  return t;
}

}  // namespace nw::ref
