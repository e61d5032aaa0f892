#include "noise/reduced_mna.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace nw::noise {

namespace {

constexpr std::size_t kMaxUnknowns = 4;  // a1, a2, v1, v2
using Vec = std::array<double, kMaxUnknowns>;
using Mat = std::array<Vec, kMaxUnknowns>;

/// The pair's circuit with its known nodes eliminated: C x' + G x =
/// g u + c u', over n unknowns, probing unknown `probe`.
struct Eliminated {
  std::size_t n = 0;
  Mat G{};
  Mat C{};
  Vec g{};
  Vec c{};
  std::size_t probe = 0;
};

/// Where a circuit node sits after elimination: an unknown, or a known
/// node at 0 V (ground, a pinned victim root) or at the ramp voltage.
struct Node {
  enum Kind { kUnknown, kZero, kRamp } kind = kZero;
  std::size_t index = 0;
};

/// Stamps a two-terminal element of value `v` into the unknowns' matrix
/// `m`, adding its ties to the ramp node to `to_ramp`.
void stamp(Mat& m, Vec& to_ramp, Node a, Node b, double v) {
  for (const auto& [p, q] : {std::pair{a, b}, std::pair{b, a}}) {
    if (p.kind != Node::kUnknown) continue;
    m[p.index][p.index] += v;
    if (q.kind == Node::kUnknown) m[p.index][q.index] -= v;
    if (q.kind == Node::kRamp) to_ramp[p.index] += v;
  }
}

/// The unknowns a1, a2, v1 and v2 that exist in the pair's circuit, with
/// the ramp node and a pinned v1 eliminated. The caller has checked that
/// v2 is an unknown.
Eliminated eliminate(const ReducedPair& p) {
  Eliminated e;
  const auto unknown = [&e] { return Node{Node::kUnknown, e.n++}; };
  const Node gnd{};
  const Node ramp{Node::kRamp};
  const Node a1 = p.r_drv > 0.0 ? unknown() : ramp;
  const Node a2 = p.aggressor.r > 0.0 ? unknown() : a1;
  const Node v1 = p.r_hold > 0.0 ? unknown() : gnd;
  const Node v2 = p.victim.r > 0.0 ? unknown() : v1;
  e.probe = v2.index;
  const auto res = [&e](Node x, Node y, double r) { stamp(e.G, e.g, x, y, 1.0 / r); };
  // Capacitances are stamped only when positive, as in the stepped circuit.
  const auto cap = [&e](Node x, Node y, double c) {
    if (c > 0.0) stamp(e.C, e.c, x, y, c);
  };
  if (p.r_drv > 0.0) res(ramp, a1, p.r_drv);
  cap(a1, gnd, p.aggressor.c_near);
  if (p.aggressor.r > 0.0) {
    res(a1, a2, p.aggressor.r);
    cap(a2, gnd, p.aggressor.c_far);
  }
  if (p.r_hold > 0.0) res(v1, gnd, p.r_hold);
  cap(v1, gnd, p.victim.c_near);
  if (p.victim.r > 0.0) {
    res(v1, v2, p.victim.r);
    cap(v2, gnd, p.victim.c_far);
  }
  // The coupling, half at the near ends and half at the far ends (both
  // halves on a1-v1 when neither net has a far node).
  cap(a1, v1, 0.5 * p.cc);
  cap(a2, v2, 0.5 * p.cc);
  return e;
}

/// In-place Cholesky factor of the SPD matrix m (lower triangle).
void cholesky(Mat& m, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double d = m[j][j];
    for (std::size_t k = 0; k < j; ++k) d -= m[j][k] * m[j][k];
    if (!(d > 0.0) || !std::isfinite(d)) {
      throw std::runtime_error("reduced circuit: conductance matrix is not positive definite");
    }
    m[j][j] = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = m[i][j];
      for (std::size_t k = 0; k < j; ++k) s -= m[i][k] * m[j][k];
      m[i][j] = s / m[j][j];
    }
  }
}

/// Solves L y = b in place, L the lower Cholesky factor.
void forward(const Mat& l, Vec& b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) b[i] -= l[i][k] * b[k];
    b[i] /= l[i][i];
  }
}

/// Cyclic Jacobi eigendecomposition of the symmetric matrix a: on return
/// a's diagonal holds the eigenvalues and the columns of v the
/// eigenvectors. An off-diagonal entry below 1e-18 of its diagonal pair
/// is zeroed without a rotation, so every rotation angle is finite.
void jacobi(Mat& a, Mat& v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = Vec{};
    v[i][i] = 1.0;
  }
  for (int sweep = 0; sweep < 64; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p][q];
        if (std::abs(apq) <= 1e-18 * (std::abs(a[p][p]) + std::abs(a[q][q]))) {
          a[p][q] = a[q][p] = 0.0;
          continue;
        }
        rotated = true;
        const double theta = (a[q][q] - a[p][p]) / (2.0 * apq);
        const double t = std::copysign(1.0, theta) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double kp = a[k][p];
          const double kq = a[k][q];
          a[k][p] = c * kp - s * kq;
          a[k][q] = s * kp + c * kq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double pk = a[p][k];
          const double qk = a[q][k];
          a[p][k] = c * pk - s * qk;
          a[q][k] = s * pk + c * qk;
        }
        a[p][q] = a[q][p] = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          const double kp = v[k][p];
          const double kq = v[k][q];
          v[k][p] = c * kp - s * kq;
          v[k][q] = s * kp + c * kq;
        }
      }
    }
    if (!rotated) return;
  }
}

/// f(t) = c0 + sum_i c[i] exp(-lambda[i] t), lambda ascending, distinct
/// and positive: one segment of the probe waveform, or a function derived
/// from it, in the segment's own time.
struct ExpSum {
  double c0 = 0.0;
  std::size_t n = 0;
  Vec c{};
  Vec lambda{};

  void add(double coef, double rate) {
    std::size_t i = 0;
    while (i < n && lambda[i] < rate) ++i;
    if (i < n && lambda[i] == rate) {
      c[i] += coef;
      return;
    }
    for (std::size_t k = n; k > i; --k) {
      c[k] = c[k - 1];
      lambda[k] = lambda[k - 1];
    }
    c[i] = coef;
    lambda[i] = rate;
    ++n;
  }

  /// f and f' at t.
  [[nodiscard]] std::pair<double, double> eval(double t) const noexcept {
    double f = c0;
    double df = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = c[i] * std::exp(-lambda[i] * t);
      f += e;
      df -= lambda[i] * e;
    }
    return {f, df};
  }

  [[nodiscard]] double at(double t) const noexcept { return eval(t).first; }

  [[nodiscard]] ExpSum derivative() const noexcept {
    ExpSum d;
    for (std::size_t i = 0; i < n; ++i) d.add(-lambda[i] * c[i], lambda[i]);
    return d;
  }

  /// Sign changes of the coefficients ordered by exponent, zeros skipped:
  /// an upper bound on f's real roots (Descartes' rule for exponential
  /// sums).
  [[nodiscard]] int sign_changes() const noexcept {
    int changes = 0;
    double last = c0;
    for (std::size_t i = 0; i < n; ++i) {
      if (c[i] == 0.0) continue;
      if (last != 0.0 && (last < 0.0) != (c[i] < 0.0)) ++changes;
      last = c[i];
    }
    return changes;
  }
};

/// Roots of one segment, ascending. An exponential sum of k terms has at
/// most k - 1 real roots; the capacity only guards against rounding.
struct Roots {
  std::array<double, kMaxUnknowns + 1> t{};
  std::size_t n = 0;
};

/// The root of f in (a, b), where f(a) = fa and f(b) have opposite signs:
/// Newton steps kept inside the bracket, bisection where a step would
/// leave it or would not halve the previous one.
double bracketed_root(const ExpSum& f, double a, double b, double fa) {
  if (fa > 0.0) std::swap(a, b);  // f(a) < 0 < f(b) from here on
  double x = 0.5 * (a + b);
  double dx_old = std::abs(b - a);
  double dx = dx_old;
  auto [fx, dfx] = f.eval(x);
  for (int it = 0; it < 200 && fx != 0.0; ++it) {
    const bool newton_leaves = ((x - b) * dfx - fx) * ((x - a) * dfx - fx) > 0.0;
    if (newton_leaves || std::abs(2.0 * fx) > std::abs(dx_old * dfx)) {
      dx_old = dx;
      dx = 0.5 * (b - a);
      const double mid = a + dx;
      if (mid == a || mid == b) return mid;
      x = mid;
    } else {
      dx_old = dx;
      dx = fx / dfx;
      const double prev = x;
      x -= dx;
      if (x == prev) return x;
    }
    if (std::abs(dx) <= 4.0 * std::numeric_limits<double>::epsilon() * std::abs(x)) {
      return x;
    }
    std::tie(fx, dfx) = f.eval(x);
    (fx < 0.0 ? a : b) = x;
  }
  return x;
}

/// Appends the roots of f in (lo, hi) at which f changes sign. With more
/// than one coefficient sign change, the roots of g = f' + lambda_k f
/// (lambda_k the lowest exponent present, 0 for the constant) split
/// (lo, hi) into pieces on which exp(lambda_k t) f is monotone, so each
/// piece holds at most one root. g has one term fewer, so the recursion
/// ends.
void sign_change_roots(const ExpSum& f, double lo, double hi, Roots& out) {
  const int changes = f.sign_changes();
  if (changes == 0) return;
  Roots cuts;
  if (changes > 1) {
    double lambda_k = 0.0;
    if (f.c0 == 0.0) {
      for (std::size_t i = 0; i < f.n; ++i) {
        if (f.c[i] != 0.0) {
          lambda_k = f.lambda[i];
          break;
        }
      }
    }
    ExpSum g;
    for (std::size_t i = 0; i < f.n; ++i) {
      if (f.lambda[i] != lambda_k) g.add(f.c[i] * (lambda_k - f.lambda[i]), f.lambda[i]);
    }
    sign_change_roots(g, lo, hi, cuts);
  }
  double a = lo;
  double fa = f.at(lo);
  for (std::size_t k = 0; k <= cuts.n; ++k) {
    const double b = k < cuts.n ? cuts.t[k] : hi;
    const double fb = f.at(b);
    if (((fa < 0.0 && fb > 0.0) || (fa > 0.0 && fb < 0.0)) && out.n < out.t.size()) {
      out.t[out.n++] = bracketed_root(f, a, b, fa);
    }
    a = b;
    fa = fb;
  }
}

}  // namespace

spice::GlitchMeasure measure_reduced(const ReducedPair& p) {
  if (!(p.slew > 0.0) || !std::isfinite(p.slew)) {
    std::ostringstream msg;
    msg << "aggressor slew must be positive and finite, got " << p.slew << " s";
    throw std::invalid_argument(msg.str());
  }
  spice::GlitchMeasure m;
  // No coupling, or a probe pinned by an ideal holder: no glitch.
  if (!(p.cc > 0.0) || (!(p.r_hold > 0.0) && !(p.victim.r > 0.0))) return m;
  Eliminated e = eliminate(p);
  const std::size_t n = e.n;

  // Modal form: G = L L^T, L^-1 C L^-T = Q diag(mu) Q^T.
  Mat& l = e.G;
  cholesky(l, n);
  // (L^-1 C)^T, then L^-1 (L^-1 C)^T = L^-1 C L^-T (C is symmetric),
  // symmetrized against rounding.
  Mat sym{};
  for (std::size_t j = 0; j < n; ++j) {
    Vec col{};
    for (std::size_t i = 0; i < n; ++i) col[i] = e.C[i][j];
    forward(l, col, n);
    for (std::size_t i = 0; i < n; ++i) sym[j][i] = col[i];
  }
  for (std::size_t j = 0; j < n; ++j) {
    Vec col{};
    for (std::size_t i = 0; i < n; ++i) col[i] = sym[i][j];
    forward(l, col, n);
    for (std::size_t i = 0; i < n; ++i) sym[i][j] = col[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) sym[i][j] = sym[j][i] = 0.5 * (sym[i][j] + sym[j][i]);
  }
  Mat q{};
  jacobi(sym, q, n);
  Vec lg = e.g;
  Vec lc = e.c;
  Vec le{};
  le[e.probe] = 1.0;
  forward(l, lg, n);
  forward(l, lc, n);
  forward(l, le, n);

  // Mode i on the ramp (u = s t, z(0) = 0):
  //   z_i = s [a_i (t - mu_i) + b_i + (a_i mu_i - b_i) e^{-t/mu_i}],
  // a_i, b_i, w_i the projections of g, c and the probe. The probe's
  // linear part sum_i w_i a_i s t is its DC gain from the ramp, zero here,
  // so v(t) = sum_i gamma_i (e^{-t/mu_i} - 1) with gamma_i = w_i s (a_i
  // mu_i - b_i); after the ramp each term decays from its value at T. A
  // mode with mu_i at rounding level is algebraic and only feeds the
  // linear part.
  double mu_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) mu_max = std::max(mu_max, sym[i][i]);
  const double slope = p.vdd / p.slew;
  ExpSum ramp;
  ExpSum tail;
  for (std::size_t i = 0; i < n; ++i) {
    const double mu = sym[i][i];
    if (!(mu > 64.0 * std::numeric_limits<double>::epsilon() * mu_max)) continue;
    double ai = 0.0;
    double bi = 0.0;
    double wi = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      ai += q[k][i] * lg[k];
      bi += q[k][i] * lc[k];
      wi += q[k][i] * le[k];
    }
    const double gamma = wi * slope * (ai * mu - bi);
    const double lambda = 1.0 / mu;
    ramp.c0 -= gamma;
    ramp.add(gamma, lambda);
    tail.add(gamma * std::expm1(-lambda * p.slew), lambda);
  }
  if (ramp.n == 0) return m;

  // Peak: the largest |v| at the end of the ramp or where v' = 0. The tail
  // is searched over 50 of its slowest time constants, after which no term
  // is left above e^-50 of its start.
  const double horizon = 50.0 * mu_max;
  double best = ramp.at(p.slew);
  m.t_peak = p.slew;
  const auto consider = [&](double t, double v) {
    if (std::abs(v) > std::abs(best)) {
      best = v;
      m.t_peak = t;
    }
  };
  const auto stationary = [&](const ExpSum& f, double start, double span) {
    Roots flat;
    sign_change_roots(f.derivative(), 0.0, span, flat);
    for (std::size_t k = 0; k < flat.n; ++k) consider(start + flat.t[k], f.at(flat.t[k]));
  };
  stationary(ramp, 0.0, p.slew);
  stationary(tail, p.slew, horizon);
  m.peak = std::abs(best);
  m.positive = best >= 0.0;

  // Width: the time the same-polarity excursion spends at or above half
  // the peak, summed between the crossings of each segment.
  if (m.peak > 0.0) {
    const double sign = m.positive ? 1.0 : -1.0;
    const auto above = [&](ExpSum f, double span) {
      f.c0 = sign * f.c0 - 0.5 * m.peak;
      for (std::size_t i = 0; i < f.n; ++i) f.c[i] *= sign;
      Roots cross;
      sign_change_roots(f, 0.0, span, cross);
      double width = 0.0;
      double t0 = 0.0;
      for (std::size_t k = 0; k <= cross.n; ++k) {
        const double t1 = k < cross.n ? cross.t[k] : span;
        if (f.at(0.5 * (t0 + t1)) >= 0.0) width += t1 - t0;
        t0 = t1;
      }
      return width;
    };
    m.width = above(ramp, p.slew) + above(tail, horizon);
  }
  if (!std::isfinite(m.peak) || !std::isfinite(m.width) || !std::isfinite(m.t_peak)) {
    std::ostringstream msg;
    msg << "reduced circuit: non-finite glitch (peak " << m.peak << " V, width " << m.width
        << " s, t_peak " << m.t_peak << " s)";
    throw std::runtime_error(msg.str());
  }
  return m;
}

}  // namespace nw::noise
