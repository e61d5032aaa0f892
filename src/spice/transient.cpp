#include "spice/transient.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "la/sparse.hpp"

namespace nw::spice {

Waveform TransientResult::waveform(std::size_t node) const {
  std::vector<double> samples(steps_);
  for (std::size_t k = 0; k < steps_; ++k) samples[k] = v(node, k);
  return Waveform(0.0, dt_, std::move(samples));
}

namespace {

/// Validates the options and returns the run's step count, bounded by
/// kMaxSteps. The bound is checked in floating point, before the count is
/// narrowed to an integer or anything is allocated.
std::size_t step_count(const TranOptions& opt) {
  if (!(opt.dt > 0.0) || !(opt.t_stop > 0.0) || !std::isfinite(opt.dt) ||
      !std::isfinite(opt.t_stop)) {
    throw std::invalid_argument("simulate: dt and t_stop must be positive and finite");
  }
  const double steps = std::ceil(opt.t_stop / opt.dt) + 1.0;
  if (!(steps <= static_cast<double>(kMaxSteps))) {
    std::ostringstream msg;
    msg.precision(6);
    msg << "simulate: " << steps << " timesteps (t_stop " << opt.t_stop << " s, dt "
        << opt.dt << " s) exceed the limit of " << kMaxSteps;
    throw std::invalid_argument(msg.str());
  }
  return static_cast<std::size_t>(steps);
}

/// The stepping loop. Calls `record(k, x)` with the unknowns after step k
/// (k = 0 is the DC operating point); node n >= 1 is x[n - 1].
template <typename Record>
void integrate(const Circuit& ckt, const TranOptions& opt, std::size_t steps,
               Record&& record) {
  const std::size_t n_nodes = ckt.node_count();       // incl. ground
  const std::size_t nv = n_nodes - 1;                 // voltage unknowns
  const std::size_t ns = ckt.vsources().size();       // source currents
  const std::size_t dim = nv + ns;

  // Index helpers: node k (k>=1) -> unknown k-1; vsource j -> nv + j.
  auto vi = [](std::size_t node) { return node - 1; };

  // Assemble G (conductances + source incidence) and C (capacitances).
  la::TripletBuilder g(dim);
  la::TripletBuilder c(dim);

  for (const auto& r : ckt.resistors()) {
    const double cond = 1.0 / r.r;
    if (r.a != 0) g.add(vi(r.a), vi(r.a), cond);
    if (r.b != 0) g.add(vi(r.b), vi(r.b), cond);
    if (r.a != 0 && r.b != 0) {
      g.add(vi(r.a), vi(r.b), -cond);
      g.add(vi(r.b), vi(r.a), -cond);
    }
  }
  for (const auto& cap : ckt.capacitors()) {
    if (cap.a != 0) c.add(vi(cap.a), vi(cap.a), cap.c);
    if (cap.b != 0) c.add(vi(cap.b), vi(cap.b), cap.c);
    if (cap.a != 0 && cap.b != 0) {
      c.add(vi(cap.a), vi(cap.b), -cap.c);
      c.add(vi(cap.b), vi(cap.a), -cap.c);
    }
  }
  for (std::size_t j = 0; j < ns; ++j) {
    const auto& src = ckt.vsources()[j];
    const std::size_t row = nv + j;
    if (src.pos != 0) {
      g.add(vi(src.pos), row, 1.0);
      g.add(row, vi(src.pos), 1.0);
    }
    if (src.neg != 0) {
      g.add(vi(src.neg), row, -1.0);
      g.add(row, vi(src.neg), -1.0);
    }
  }

  // Trapezoidal rule on the KCL rows (theta = 1/2):
  //   (C/h + theta G) x_{k+1} = (C/h - (1-theta) G) x_k
  // Voltage-source rows are algebraic constraints (v_p - v_n = V(t)) and
  // are kept unscaled so they hold exactly at t_{k+1}.
  constexpr double theta = 0.5;
  const double inv_h = 1.0 / opt.dt;
  la::TripletBuilder lhs(dim);
  la::TripletBuilder rhs_mat(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    const bool constraint_row = r >= nv;
    for (const auto& [col, val] : g.row(r)) {
      if (constraint_row) {
        lhs.add(r, col, val);
      } else {
        lhs.add(r, col, theta * val);
        rhs_mat.add(r, col, -(1.0 - theta) * val);
      }
    }
    for (const auto& [col, val] : c.row(r)) {
      lhs.add(r, col, inv_h * val);
      rhs_mat.add(r, col, inv_h * val);
    }
  }
  const la::SparseLu lu(lhs);
  const la::SparseMatrix rhs_m(rhs_mat);

  // Source vector b(0): zero on the KCL rows, source voltages on the
  // constraint rows.
  std::vector<double> b(dim, 0.0);
  for (std::size_t j = 0; j < ns; ++j) b[nv + j] = ckt.vsources()[j].wave.at(0.0);

  // DC operating point at t = 0: solve G x = b(0). Floating pure-C nodes
  // make G singular; regularize with a tiny leak to ground.
  la::TripletBuilder g_dc(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (const auto& [col, val] : g.row(r)) g_dc.add(r, col, val);
  }
  for (std::size_t r = 0; r < nv; ++r) g_dc.add(r, r, 1e-12);
  const la::SparseLu lu_dc(g_dc);
  std::vector<double> x(dim);
  std::vector<double> y(dim);
  lu_dc.solve_into(b, y, x);
  record(0, std::as_const(x));

  std::vector<double> v_now(ns);
  for (std::size_t k = 1; k < steps; ++k) {
    const double t = opt.dt * static_cast<double>(k);
    for (std::size_t j = 0; j < ns; ++j) v_now[j] = ckt.vsources()[j].wave.at(t);
    // Row r of the right-hand side, read from x_k before the back
    // substitution overwrites x with x_{k+1}. Constraint rows: v_p - v_n =
    // V(t_{k+1}) exactly.
    lu.solve_fused(
        [&](std::size_t r) { return r >= nv ? v_now[r - nv] : rhs_m.row_dot(r, x); },
        y, x);
    record(k, std::as_const(x));
  }
}

}  // namespace

TransientResult simulate(const Circuit& ckt, const TranOptions& opt) {
  const std::size_t steps = step_count(opt);
  const std::size_t n_nodes = ckt.node_count();
  TransientResult res(opt.dt, n_nodes, steps);
  integrate(ckt, opt, steps, [&](std::size_t k, const std::vector<double>& x) {
    for (std::size_t node = 1; node < n_nodes; ++node) res.set(node, k, x[node - 1]);
  });
  return res;
}

Waveform simulate_node(const Circuit& ckt, const TranOptions& opt, std::size_t node) {
  if (node >= ckt.node_count()) {
    throw std::out_of_range("simulate_node: node index out of range");
  }
  const std::size_t steps = step_count(opt);
  std::vector<double> samples(steps, 0.0);
  integrate(ckt, opt, steps, [&](std::size_t k, const std::vector<double>& x) {
    if (node != 0) samples[k] = x[node - 1];
  });
  return Waveform(0.0, opt.dt, std::move(samples));
}

}  // namespace nw::spice
