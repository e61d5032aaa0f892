// Flat linear circuit for noise validation: R, C and piecewise-linear
// voltage sources. Node 0 is ground.
//
// This is the substrate of the built-in MNA transient engine used as the
// golden reference for glitch accuracy experiments.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace nw::spice {

/// One breakpoint of a piecewise-linear source.
struct PwlPoint {
  double t = 0.0;
  double v = 0.0;
};

/// Piecewise-linear waveform: value holds before the first and after the
/// last breakpoint; linear in between. Breakpoints must be time-sorted.
class Pwl {
 public:
  Pwl() = default;
  explicit Pwl(std::vector<PwlPoint> points);

  /// Constant source.
  [[nodiscard]] static Pwl dc(double v) { return Pwl({{0.0, v}}); }
  /// A single ramp from v0 to v1 starting at t0 with transition time tr.
  [[nodiscard]] static Pwl ramp(double t0, double tr, double v0, double v1);
  /// A pulse: ramp up at t0 (tr), hold for `hold`, ramp back down (tr).
  [[nodiscard]] static Pwl pulse(double t0, double tr, double hold, double v0, double v1);

  [[nodiscard]] double at(double t) const noexcept;
  [[nodiscard]] const std::vector<PwlPoint>& points() const noexcept { return pts_; }

 private:
  std::vector<PwlPoint> pts_;
};

struct Resistor {
  std::size_t a = 0;
  std::size_t b = 0;
  double r = 0.0;
};

struct Capacitor {
  std::size_t a = 0;
  std::size_t b = 0;
  double c = 0.0;
};

struct VoltageSource {
  std::size_t pos = 0;
  std::size_t neg = 0;
  Pwl wave;
};

class Circuit {
 public:
  Circuit() { node_names_.emplace_back("0"); }  // ground

  /// Create a node; returns its index (>= 1).
  std::size_t add_node(std::string name = {});

  [[nodiscard]] std::size_t node_count() const noexcept { return node_names_.size(); }
  [[nodiscard]] const std::string& node_name(std::size_t n) const {
    return node_names_.at(n);
  }

  void add_res(std::size_t a, std::size_t b, double r);
  void add_cap(std::size_t a, std::size_t b, double c);
  std::size_t add_vsrc(std::size_t pos, std::size_t neg, Pwl wave);

  [[nodiscard]] const std::vector<Resistor>& resistors() const noexcept { return rs_; }
  [[nodiscard]] const std::vector<Capacitor>& capacitors() const noexcept { return cs_; }
  [[nodiscard]] const std::vector<VoltageSource>& vsources() const noexcept { return vs_; }

 private:
  void check_node(std::size_t n, const char* what) const;

  std::vector<std::string> node_names_;
  std::vector<Resistor> rs_;
  std::vector<Capacitor> cs_;
  std::vector<VoltageSource> vs_;
};

}  // namespace nw::spice
