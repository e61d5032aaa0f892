#include "spice/reference.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace nw::ref {

NestedLu::NestedLu(const la::TripletBuilder& a, double pivot_threshold) : n_(a.dim()) {
  if (pivot_threshold <= 0.0 || pivot_threshold > 1.0) {
    throw std::invalid_argument("NestedLu: pivot_threshold must be in (0,1]");
  }
  std::vector<std::map<std::size_t, double>> work(n_);
  for (std::size_t r = 0; r < n_; ++r) work[r] = a.row(r);
  std::vector<std::size_t> rowidx(n_);
  for (std::size_t i = 0; i < n_; ++i) rowidx[i] = i;
  std::vector<std::vector<std::pair<std::size_t, double>>> mult(n_);

  lower_.assign(n_, {});
  upper_.assign(n_, {});

  for (std::size_t k = 0; k < n_; ++k) {
    double colmax = 0.0;
    for (std::size_t i = k; i < n_; ++i) {
      const auto& row = work[rowidx[i]];
      const auto it = row.find(k);
      if (it != row.end()) colmax = std::max(colmax, std::abs(it->second));
    }
    if (colmax < 1e-300) throw std::runtime_error("NestedLu: singular matrix");

    std::size_t chosen = n_;
    std::size_t chosen_len = static_cast<std::size_t>(-1);
    for (std::size_t i = k; i < n_; ++i) {
      const auto& row = work[rowidx[i]];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      if (std::abs(it->second) >= pivot_threshold * colmax && row.size() < chosen_len) {
        chosen_len = row.size();
        chosen = i;
      }
    }
    if (chosen == n_) throw std::runtime_error("NestedLu: pivot selection failed");
    std::swap(rowidx[k], rowidx[chosen]);

    auto& prow = work[rowidx[k]];
    const double pivot = prow.at(k);
    for (const auto& [c, v] : prow) {
      if (c >= k) upper_[k].emplace_back(c, v);
    }
    for (std::size_t i = k + 1; i < n_; ++i) {
      auto& row = work[rowidx[i]];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      const double f = it->second / pivot;
      row.erase(it);
      mult[rowidx[i]].emplace_back(k, f);
      for (const auto& [c, v] : prow) {
        if (c <= k) continue;
        auto& target = row[c];
        target -= f * v;
        if (std::abs(target) < 1e-300) row.erase(c);
      }
    }
  }
  for (std::size_t i = 0; i < n_; ++i) lower_[i] = std::move(mult[rowidx[i]]);
  perm_ = rowidx;
}

std::vector<double> NestedLu::solve(std::span<const double> b) const {
  if (b.size() != n_) throw std::invalid_argument("NestedLu::solve: size");
  std::vector<double> y(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = b[perm_[i]];
    for (const auto& [k, f] : lower_[i]) acc -= f * y[k];
    y[i] = acc;
  }
  std::vector<double> x(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    double diag = 0.0;
    for (const auto& [c, v] : upper_[ii]) {
      if (c == ii) {
        diag = v;
      } else {
        acc -= v * x[c];
      }
    }
    x[ii] = acc / diag;
  }
  return x;
}

spice::TransientResult simulate(const spice::Circuit& ckt, const spice::TranOptions& opt) {
  if (opt.dt <= 0.0 || opt.t_stop <= 0.0) {
    throw std::invalid_argument("ref::simulate: dt and t_stop must be positive");
  }
  const std::size_t n_nodes = ckt.node_count();
  const std::size_t nv = n_nodes - 1;
  const std::size_t ns = ckt.vsources().size();
  const std::size_t dim = nv + ns;
  const auto steps = static_cast<std::size_t>(std::ceil(opt.t_stop / opt.dt)) + 1;
  auto vi = [](std::size_t node) { return node - 1; };

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

  const double theta = 0.5;
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
  const NestedLu lu(lhs);
  const la::SparseMatrix rhs_m(rhs_mat);

  auto source_vec = [&](double t) {
    std::vector<double> b(dim, 0.0);
    for (std::size_t j = 0; j < ns; ++j) b[nv + j] = ckt.vsources()[j].wave.at(t);
    return b;
  };

  la::TripletBuilder g_dc(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (const auto& [col, val] : g.row(r)) g_dc.add(r, col, val);
  }
  for (std::size_t r = 0; r < nv; ++r) g_dc.add(r, r, 1e-12);
  const NestedLu lu_dc(g_dc);
  std::vector<double> x = lu_dc.solve(source_vec(0.0));

  spice::TransientResult res(opt.dt, n_nodes, steps);
  for (std::size_t node = 1; node < n_nodes; ++node) res.set(node, 0, x[vi(node)]);

  for (std::size_t k = 1; k < steps; ++k) {
    const double t = opt.dt * static_cast<double>(k);
    const std::vector<double> b_now = source_vec(t);
    std::vector<double> rhs = rhs_m.multiply(x);
    for (std::size_t j = 0; j < ns; ++j) rhs[nv + j] = b_now[nv + j];
    x = lu.solve(rhs);
    for (std::size_t node = 1; node < n_nodes; ++node) res.set(node, k, x[vi(node)]);
  }
  return res;
}

}  // namespace nw::ref
