#include "spice/circuit.hpp"

#include <algorithm>
#include <stdexcept>

namespace nw::spice {

Pwl::Pwl(std::vector<PwlPoint> points) : pts_(std::move(points)) {
  for (std::size_t i = 1; i < pts_.size(); ++i) {
    if (!(pts_[i - 1].t <= pts_[i].t)) {
      throw std::invalid_argument("Pwl: breakpoints not time-sorted");
    }
  }
}

Pwl Pwl::ramp(double t0, double tr, double v0, double v1) {
  if (tr <= 0.0) throw std::invalid_argument("Pwl::ramp: non-positive transition");
  return Pwl({{t0, v0}, {t0 + tr, v1}});
}

Pwl Pwl::pulse(double t0, double tr, double hold, double v0, double v1) {
  if (tr <= 0.0 || hold < 0.0) throw std::invalid_argument("Pwl::pulse: bad shape");
  return Pwl({{t0, v0}, {t0 + tr, v1}, {t0 + tr + hold, v1}, {t0 + 2 * tr + hold, v0}});
}

double Pwl::at(double t) const noexcept {
  if (pts_.empty()) return 0.0;
  if (t <= pts_.front().t) return pts_.front().v;
  if (t >= pts_.back().t) return pts_.back().v;
  const auto it = std::upper_bound(pts_.begin(), pts_.end(), t,
                                   [](double x, const PwlPoint& p) { return x < p.t; });
  const PwlPoint& hi = *it;
  const PwlPoint& lo = *std::prev(it);
  if (hi.t == lo.t) return hi.v;
  const double f = (t - lo.t) / (hi.t - lo.t);
  return lo.v + f * (hi.v - lo.v);
}

std::size_t Circuit::add_node(std::string name) {
  const std::size_t idx = node_names_.size();
  if (name.empty()) name = "n" + std::to_string(idx);
  node_names_.push_back(std::move(name));
  return idx;
}

void Circuit::check_node(std::size_t n, const char* what) const {
  if (n >= node_names_.size()) {
    throw std::out_of_range(std::string(what) + ": node index out of range");
  }
}

void Circuit::add_res(std::size_t a, std::size_t b, double r) {
  check_node(a, "add_res");
  check_node(b, "add_res");
  if (r <= 0.0) throw std::invalid_argument("add_res: non-positive resistance");
  if (a == b) throw std::invalid_argument("add_res: both terminals on same node");
  rs_.push_back({a, b, r});
}

void Circuit::add_cap(std::size_t a, std::size_t b, double c) {
  check_node(a, "add_cap");
  check_node(b, "add_cap");
  if (c <= 0.0) throw std::invalid_argument("add_cap: non-positive capacitance");
  if (a == b) throw std::invalid_argument("add_cap: both terminals on same node");
  cs_.push_back({a, b, c});
}

std::size_t Circuit::add_vsrc(std::size_t pos, std::size_t neg, Pwl wave) {
  check_node(pos, "add_vsrc");
  check_node(neg, "add_vsrc");
  if (pos == neg) throw std::invalid_argument("add_vsrc: both terminals on same node");
  vs_.push_back({pos, neg, std::move(wave)});
  return vs_.size() - 1;
}

}  // namespace nw::spice
