// MNA transient simulation (trapezoidal rule, fixed step).
//
// Unknowns are the non-ground node voltages plus one branch current per
// voltage source. For the linear RC + source networks of noise analysis
// the system matrix is constant, so it is assembled and LU-factorized once
// (TranSystem) and every timestep is a single solve — the same
// discretization SPICE applies to these elements, which is what makes this
// engine a legitimate golden reference (see DESIGN.md substitutions).
//
// One stepping loop serves every caller. It steps W independent systems in
// lockstep lanes, W a compile-time lane count: the index arrays of the LU
// factors and of the right-hand-side matrix (C/h - (1-theta) G) are shared,
// while the factor values, x, y and the source values are held per lane,
// lane-minor, so each arithmetic statement runs across the lanes and the
// lanes' division latencies overlap instead of forming one serial chain.
// Systems share lanes only when their structures are equal
// (TranSystem::same_structure: same unknowns, same row permutation, same
// L, U and right-hand-side patterns). Threshold pivoting picks the
// permutation from the values, so simulate_batch groups the systems by
// structure and runs each group through the lanes, longest runs first; a
// lane that reaches its own step count takes the next system of its group
// (refill), and a lane with no system left steps an identity system of
// zeros. simulate() is the W = 1 case, as is a batch of one system.
//
// The loop allocates nothing per step. Each step evaluates every lane's
// voltage sources, assembles the right-hand side row by row inside the
// forward substitution and overwrites x in place in the back
// substitution. Within a lane every floating-point operation keeps the
// order of a plain multiply-then-solve step and lanes never mix, so each
// lane's samples are bit-identical to a scalar run (nw_spice builds with
// -ffp-contract=off; tests/spice/reference.hpp keeps the plain loop as the
// oracle).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "la/sparse.hpp"
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

/// Lane count of the stepping loop for groups of two or more systems. On
/// the stepped 6-unknown reduced-MNA circuits of a 1024-bit bus, 4 lanes
/// halved the time per pair-step against one lane and 8 lanes gained
/// nothing more; on mna-exact's clusters 8 lanes are slower than 4 on the
/// portable and the x86-64-v3 build alike (see DESIGN.md §4.1).
inline constexpr std::size_t kLanes = 4;

/// One circuit's transient run, assembled and factored: the step matrix's
/// LU, the right-hand-side matrix, the DC operating point, the voltage
/// sources, the step count and the node a batched run records.
class TranSystem {
 public:
  /// Throws std::out_of_range for a probe outside the circuit,
  /// std::invalid_argument for a non-positive or non-finite t_stop or dt or
  /// a step count above kMaxSteps (the message names the count, t_stop and
  /// dt; checked before anything is allocated), and std::runtime_error if
  /// the MNA matrix is singular.
  TranSystem(const Circuit& ckt, const TranOptions& opt, std::size_t probe = 0);

  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] double dt() const noexcept { return dt_; }

  /// Same unknowns and the same LU and right-hand-side patterns: such
  /// systems differ only in values and step together in lanes.
  [[nodiscard]] bool same_structure(const TranSystem& o) const noexcept {
    return nv_ == o.nv_ && sources_.size() == o.sources_.size() &&
           lu_.same_structure(o.lu_) && rhs_.same_pattern(o.rhs_);
  }

 private:
  friend struct LaneLoop;

  double dt_;
  std::size_t steps_;
  std::size_t probe_;
  std::size_t nv_;             ///< voltage unknowns (node n >= 1 is unknown n - 1)
  std::vector<Pwl> sources_;   ///< source j drives constraint row nv_ + j
  la::SparseLu lu_;            ///< C/h + theta G (source rows unscaled)
  la::SparseMatrix rhs_;       ///< C/h - (1 - theta) G (source rows empty)
  std::vector<double> x0_;     ///< DC operating point at t = 0
};

/// Simulate, recording every node. Throws as TranSystem does.
[[nodiscard]] TransientResult simulate(const Circuit& ckt, const TranOptions& opt);

/// Runs every system, recording its probe node: groups the systems by
/// structure and steps each group in kLanes lanes, longest runs first, a
/// group of one in a single lane. Calls done(i, samples)
/// once per system, as its run finishes, with system i's steps() probe
/// samples; the span is a lane's reused buffer, valid only during the
/// call. Each system's samples equal simulate(ckt, opt).waveform(probe)
/// of its circuit bit for bit, whatever the batch.
void simulate_batch(std::span<const TranSystem> systems,
                    const std::function<void(std::size_t, std::span<const double>)>& done);

}  // namespace nw::spice
