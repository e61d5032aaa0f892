// MNA transient simulation (trapezoidal rule, fixed step).
//
// Unknowns are the non-ground node voltages plus one branch current per
// voltage source. For the linear RC + source networks of noise analysis
// the system matrix is constant, so it is assembled and LU-factorized once
// and every timestep is a single solve — the same discretization SPICE
// applies to these elements, which is what makes this engine a legitimate
// golden reference (see DESIGN.md substitutions).
//
// The timestep loop allocates nothing. Each step evaluates the voltage
// sources into a buffer and runs one fused solve over the flat LU factors
// (la::SparseLu::solve_fused): the right-hand side (C/h - (1-theta) G) x_k
// plus the source terms is assembled row by row inside the forward
// substitution, and back substitution overwrites x in place. Every
// floating-point operation keeps the order of a plain multiply-then-solve
// step, so the samples are bit-identical to it (tests/spice/reference.hpp
// keeps that plain loop as the oracle).
//
// One stepping loop serves two recorders: simulate() keeps every node
// (waveform benches, tests), simulate_node() keeps a single probe node
// straight into a Waveform (the MNA glitch models).
#pragma once

#include <cstddef>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace nw::spice {

struct TranOptions {
  double t_stop = 1e-9;   ///< simulation end time [s]
  double dt = 0.25e-12;   ///< fixed timestep [s]
};

class TransientResult {
 public:
  TransientResult(double dt, std::size_t node_count, std::size_t steps)
      : dt_(dt), node_count_(node_count), steps_(steps),
        data_(node_count * steps, 0.0) {}

  [[nodiscard]] double dt() const noexcept { return dt_; }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }

  /// Voltage of node `n` at step `k` (node 0 = ground = 0 V always).
  [[nodiscard]] double v(std::size_t n, std::size_t k) const {
    return n == 0 ? 0.0 : data_.at((n - 1) * steps_ + k);
  }
  void set(std::size_t n, std::size_t k, double val) {
    if (n > 0) data_.at((n - 1) * steps_ + k) = val;
  }

  /// Extract a node's full waveform.
  [[nodiscard]] Waveform waveform(std::size_t node) const;

 private:
  double dt_;
  std::size_t node_count_;  ///< including ground
  std::size_t steps_;
  std::vector<double> data_;  ///< (node-1) major, step minor
};

/// Largest step count one run may take: ceil(t_stop / dt) + 1 samples.
/// At about 0.1 us a step on a glitch-model circuit this is half a second
/// per run, and one recorded node is 32 MiB; a larger count means a
/// mis-scaled t_stop or dt (say a millisecond slew on a picosecond grid),
/// which fails fast instead of running for minutes or exhausting memory.
inline constexpr std::size_t kMaxSteps = std::size_t{1} << 22;

/// Simulate, recording every node. Throws std::runtime_error if the MNA
/// matrix is singular, and std::invalid_argument for a non-positive or
/// non-finite t_stop or dt, or a step count above kMaxSteps (the message
/// names the count, t_stop and dt); the option checks run before anything
/// is allocated.
[[nodiscard]] TransientResult simulate(const Circuit& ckt, const TranOptions& opt);

/// Simulate, recording only `node` (0 = ground, all zeros). The samples
/// equal simulate(ckt, opt).waveform(node) bit for bit. Throws as
/// simulate() does, and std::out_of_range for a node outside the circuit.
[[nodiscard]] Waveform simulate_node(const Circuit& ckt, const TranOptions& opt,
                                     std::size_t node);

}  // namespace nw::spice
