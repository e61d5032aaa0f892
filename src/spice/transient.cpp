#include "spice/transient.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

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

std::size_t checked_probe(const Circuit& ckt, std::size_t probe) {
  if (probe >= ckt.node_count()) {
    throw std::out_of_range("simulate_node: node index out of range");
  }
  return probe;
}

}  // namespace

TranSystem::TranSystem(const Circuit& ckt, const TranOptions& opt, std::size_t probe)
    : dt_(opt.dt),
      steps_(step_count(opt)),
      probe_(checked_probe(ckt, probe)),
      nv_(ckt.node_count() - 1),
      lu_(la::TripletBuilder(0)),    // empty until assembled below
      rhs_(la::TripletBuilder(0)) {
  const std::size_t ns = ckt.vsources().size();  // source currents
  const std::size_t dim = nv_ + ns;

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
  sources_.reserve(ns);
  for (std::size_t j = 0; j < ns; ++j) {
    const auto& src = ckt.vsources()[j];
    const std::size_t row = nv_ + j;
    if (src.pos != 0) {
      g.add(vi(src.pos), row, 1.0);
      g.add(row, vi(src.pos), 1.0);
    }
    if (src.neg != 0) {
      g.add(vi(src.neg), row, -1.0);
      g.add(row, vi(src.neg), -1.0);
    }
    sources_.push_back(src.wave);
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
    const bool constraint_row = r >= nv_;
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
  lu_ = la::SparseLu(lhs);
  rhs_ = la::SparseMatrix(rhs_mat);

  // Source vector b(0): zero on the KCL rows, source voltages on the
  // constraint rows.
  std::vector<double> b(dim, 0.0);
  for (std::size_t j = 0; j < ns; ++j) b[nv_ + j] = sources_[j].at(0.0);

  // DC operating point at t = 0: solve G x = b(0). Floating pure-C nodes
  // make G singular; regularize with a tiny leak to ground.
  la::TripletBuilder g_dc(dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (const auto& [col, val] : g.row(r)) g_dc.add(r, col, val);
  }
  for (std::size_t r = 0; r < nv_; ++r) g_dc.add(r, r, 1e-12);
  const la::SparseLu lu_dc(g_dc);
  x0_.resize(dim);
  std::vector<double> y(dim);
  lu_dc.solve_into(b, y, x0_);
}

/// The stepping loop (see the file comment).
struct LaneLoop {
  /// One lane's unknowns: unknown i is x[i * stride].
  struct LaneX {
    const double* x;
    std::size_t stride;
    double operator[](std::size_t i) const noexcept { return x[i * stride]; }
  };

  /// Steps the systems of `group` (all of one structure) in W lanes.
  /// Calls on_step(lane, job, k, x) with the unknowns of group[job] after
  /// step k (k = 0 is the DC operating point), and on_done(lane, job)
  /// after its last step, before the lane takes the next system.
  template <std::size_t W, typename OnStep, typename OnDone>
  static void run(std::span<const TranSystem* const> group, OnStep&& on_step,
                  OnDone&& on_done) {
    const TranSystem& shape = *group.front();
    const la::SparseLu::Factors f = shape.lu_.factors();
    const la::SparseMatrix::Csr m = shape.rhs_.csr();
    const std::size_t dim = f.perm.size();
    const std::size_t nv = shape.nv_;
    const std::size_t ns = shape.sources_.size();

    // Per-lane values, lane-minor: entry e of lane w is [e * W + w].
    std::vector<double> l_val(f.l_val.size() * W);
    std::vector<double> u_val(f.u_val.size() * W);
    std::vector<double> u_diag(dim * W);
    std::vector<double> r_val(m.val.size() * W);
    std::vector<double> x(dim * W);
    std::vector<double> y(dim * W);
    std::vector<double> v_now(ns * W);

    struct Lane {
      const TranSystem* sys = nullptr;  ///< null: idle
      std::size_t job = 0;
      std::size_t k = 0;                ///< next step
    };
    std::array<Lane, W> lanes{};
    std::size_t next = 0;
    std::size_t active = 0;

    const auto put = [](std::span<const double> from, std::vector<double>& to,
                        std::size_t w) {
      for (std::size_t e = 0; e < from.size(); ++e) to[e * W + w] = from[e];
    };
    const auto fill = [](std::vector<double>& to, std::size_t w, double v) {
      for (std::size_t e = w; e < to.size(); e += W) to[e] = v;
    };
    // Puts the next system of the group on lane w and records its DC
    // point, or idles the lane: an idle lane steps an identity system of
    // zeros, which never divides by zero or leaves the finite range.
    const auto load = [&](std::size_t w) {
      while (next < group.size()) {
        const TranSystem& s = *group[next];
        lanes[w] = {&s, next++, 1};
        const la::SparseLu::Factors sf = s.lu_.factors();
        put(sf.l_val, l_val, w);
        put(sf.u_val, u_val, w);
        put(sf.u_diag, u_diag, w);
        put(s.rhs_.csr().val, r_val, w);
        put(s.x0_, x, w);
        on_step(w, lanes[w].job, std::size_t{0}, LaneX{x.data() + w, W});
        if (s.steps_ > 1) return true;
        on_done(w, lanes[w].job);
      }
      lanes[w].sys = nullptr;
      fill(l_val, w, 0.0);
      fill(u_val, w, 0.0);
      fill(u_diag, w, 1.0);
      fill(r_val, w, 0.0);
      fill(x, w, 0.0);
      fill(v_now, w, 0.0);
      return false;
    };
    for (std::size_t w = 0; w < W; ++w) active += load(w) ? 1 : 0;

    while (active > 0) {
      for (std::size_t w = 0; w < W; ++w) {
        const TranSystem* s = lanes[w].sys;
        if (s == nullptr) continue;
        const double t = s->dt_ * static_cast<double>(lanes[w].k);
        for (std::size_t j = 0; j < ns; ++j) v_now[j * W + w] = s->sources_[j].at(t);
      }
      // Forward: L y = P b, where row r of b is read from x_k: the source
      // value V(t_{k+1}) on a constraint row, row r of the right-hand-side
      // matrix times x_k (summed in column order from +0.0) otherwise.
      for (std::size_t i = 0; i < dim; ++i) {
        std::array<double, W> acc;
        const std::size_t r = f.perm[i];
        if (r >= nv) {
          for (std::size_t w = 0; w < W; ++w) acc[w] = v_now[(r - nv) * W + w];
        } else {
          acc.fill(0.0);
          for (std::size_t e = m.row_ptr[r]; e < m.row_ptr[r + 1]; ++e) {
            const double* a = &r_val[e * W];
            const double* b = &x[m.col[e] * W];
            for (std::size_t w = 0; w < W; ++w) acc[w] += a[w] * b[w];
          }
        }
        for (std::size_t e = f.l_ptr[i]; e < f.l_ptr[i + 1]; ++e) {
          const double* a = &l_val[e * W];
          const double* b = &y[f.l_col[e] * W];
          for (std::size_t w = 0; w < W; ++w) acc[w] -= a[w] * b[w];
        }
        for (std::size_t w = 0; w < W; ++w) y[i * W + w] = acc[w];
      }
      // Back: U x_{k+1} = y, overwriting x_k in place.
      for (std::size_t i = dim; i-- > 0;) {
        std::array<double, W> acc;
        for (std::size_t w = 0; w < W; ++w) acc[w] = y[i * W + w];
        for (std::size_t e = f.u_ptr[i]; e < f.u_ptr[i + 1]; ++e) {
          const double* a = &u_val[e * W];
          const double* b = &x[f.u_col[e] * W];
          for (std::size_t w = 0; w < W; ++w) acc[w] -= a[w] * b[w];
        }
        for (std::size_t w = 0; w < W; ++w) x[i * W + w] = acc[w] / u_diag[i * W + w];
      }
      for (std::size_t w = 0; w < W; ++w) {
        Lane& lane = lanes[w];
        if (lane.sys == nullptr) continue;
        on_step(w, lane.job, lane.k, LaneX{x.data() + w, W});
        if (++lane.k < lane.sys->steps_) continue;
        on_done(w, lane.job);
        if (!load(w)) --active;
      }
    }
  }

  /// Runs `group` in W lanes, recording each system's probe into a
  /// per-lane buffer that done(job, samples) receives.
  template <std::size_t W, typename Done>
  static void run_probes(std::span<const TranSystem* const> group, Done&& done) {
    std::array<std::vector<double>, W> buf;
    run<W>(
        group,
        [&](std::size_t w, std::size_t job, std::size_t k, LaneX x) {
          const TranSystem& s = *group[job];
          if (k == 0) buf[w].assign(s.steps_, 0.0);
          if (s.probe_ != 0) buf[w][k] = x[s.probe_ - 1];
        },
        [&](std::size_t w, std::size_t job) { done(job, std::span<const double>(buf[w])); });
  }
};

TransientResult simulate(const Circuit& ckt, const TranOptions& opt) {
  const TranSystem sys(ckt, opt);
  const std::size_t n_nodes = ckt.node_count();
  TransientResult res(opt.dt, n_nodes, sys.steps());
  const TranSystem* group[] = {&sys};
  LaneLoop::run<1>(
      group,
      [&](std::size_t, std::size_t, std::size_t k, LaneLoop::LaneX x) {
        for (std::size_t node = 1; node < n_nodes; ++node) res.set(node, k, x[node - 1]);
      },
      [](std::size_t, std::size_t) {});
  return res;
}

Waveform simulate_node(const Circuit& ckt, const TranOptions& opt, std::size_t node) {
  const TranSystem sys(ckt, opt, node);
  std::vector<double> samples;
  const TranSystem* group[] = {&sys};
  LaneLoop::run_probes<1>(group, [&](std::size_t, std::span<const double> s) {
    samples.assign(s.begin(), s.end());
  });
  return Waveform(0.0, opt.dt, std::move(samples));
}

void simulate_batch(std::span<const TranSystem> systems,
                    const std::function<void(std::size_t, std::span<const double>)>& done) {
  std::vector<std::vector<const TranSystem*>> groups;
  for (const TranSystem& s : systems) {
    auto it = groups.begin();
    while (it != groups.end() && !it->front()->same_structure(s)) ++it;
    if (it == groups.end()) {
      groups.emplace_back(1, &s);
    } else {
      it->push_back(&s);
    }
  }
  for (auto& group : groups) {
    // Longest runs first: the short ones then fill the lanes that free up,
    // so the lanes run out of work at about the same step.
    std::stable_sort(group.begin(), group.end(), [](const TranSystem* a, const TranSystem* b) {
      return a->steps() > b->steps();
    });
    const auto report = [&](std::size_t job, std::span<const double> samples) {
      done(static_cast<std::size_t>(group[job] - systems.data()), samples);
    };
    if (group.size() == 1) {
      LaneLoop::run_probes<1>(group, report);
    } else {
      LaneLoop::run_probes<kLanes>(group, report);
    }
  }
}

}  // namespace nw::spice
