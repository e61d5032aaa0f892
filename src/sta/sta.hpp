// Static timing analysis: arrival windows, slews, switching windows.
//
// Noise-window analysis consumes three STA products:
//   1. per-net switching windows — the time interval within which the net
//      can transition (aggressor temporal filtering),
//   2. per-net slew ranges — the fastest aggressor edge bounds injected
//      noise,
//   3. clock arrivals at sequential elements — the latch sensitivity
//      windows that propagated noise is checked against.
//
// The engine is a levelized block-based STA: arrival intervals [earliest,
// latest] for rise and fall are propagated from primary inputs and
// sequential outputs through NLDM cell arcs and Elmore wire delays (one
// flat per-pin slab of wire delays and one per-net slab of driver loads,
// filled in net order by a full run and per net on first read by an
// incremental one, which pays only for the nets it touches; a Result keeps
// no slabs).
//
// Propagation is an event-driven worklist over one levelization, the Kahn
// order of Design::topological_order(), which the Result keeps as `order`
// so the noise analysis levelizes from it instead of walking again. Sweep 1
// evaluates every instance in that order. When an output pin's timing
// changes, each instance with an arc from a pin on its net is marked dirty
// (a DFF/latch D pin starts no arc): for the current sweep if it ranks
// later, else (a CK -> Q launch behind its own clock tree) for the next
// sweep. Later sweeps visit only dirty instances, in rank order. An
// instance whose arc inputs did not change would yield the same output,
// and merging an equal window is a no-op, so the result is the full-pass
// fixpoint bit for bit.
//
// `passes` keeps the full-pass definition: the sweeps run, plus one if the
// last sweep still changed a pin and fewer than kMaxPasses sweeps ran (the
// pass a full-pass loop spends confirming the fixpoint). Ordinary clock
// trees take two or three. If instances are still dirty after kMaxPasses
// sweeps, one more sweep re-evaluates them without counting as a pass; if
// it changes a pin, run() throws std::runtime_error naming the first
// instance it changed: the clock chain is deeper than the bound, or a
// clock loop runs through sequential cells, and a partial result would
// under-report.
//
// Incremental runs (ECO). run_incremental() re-times an edited design from
// the Result of its pre-edit state, equal field by field to a fresh run().
// A pin's final value is the hull of every evaluation of its arcs, and an
// arc's delay is not monotone in its input slews, so re-evaluating the
// edit's fanout cone from the final inputs would not be exact: a pin that
// held a partial value in sweep 1 (a flop whose clock buffer ranks later)
// contributed that partial evaluation to the hull. The incremental run
// therefore replays sweep 1 itself. It restores the sweep-1 state (the
// Result keeps, sparsely, the sweep-1 value of every pin that changed in a
// later sweep), re-seeds the input ports, and re-evaluates in rank order
// only the instances whose sweep-1 inputs changed: those on an edited net,
// those reading a re-seeded port, and the fanout of every pin whose sweep-1
// value moved. Like sweep 1 of run(), a replayed instance reads a driver
// of higher rank as its initial, unreached value. The sweep-2 seed set,
// kept by the Result, is patched for the instances whose seeds could
// change, and sweeps 2 and later run on the same worklist loop as run().
// An arrival-window edit needs no net: re-seeding compares every input
// port's seed with the base's. The run returns the nets whose NetTiming
// moved, the set a caller would otherwise diff for.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "parasitics/rcnet.hpp"
#include "util/interval.hpp"

namespace nw::sta {

/// Upper bound on propagation sweeps (see the header comment).
inline constexpr int kMaxPasses = 6;

/// Arrival/slew state of one pin. Empty intervals mean "unreached".
struct PinTiming {
  Interval rise;             ///< [earliest, latest] rising arrival [s]
  Interval fall;             ///< [earliest, latest] falling arrival [s]
  double slew_min = 0.0;     ///< fastest edge seen [s]
  double slew_max = 0.0;     ///< slowest edge seen [s]

  [[nodiscard]] Interval window() const noexcept { return rise.hull(fall); }
  [[nodiscard]] bool reached() const noexcept {
    return !rise.is_empty() || !fall.is_empty();
  }
};

/// Per-net summary (timing of the driving pin).
struct NetTiming {
  Interval window;           ///< switching window (rise u fall hull)
  double slew_min = 0.0;
  double slew_max = 0.0;
  [[nodiscard]] bool switches() const noexcept { return !window.is_empty(); }
};

/// A timing endpoint; its setup slack is required - arrival.
struct Endpoint {
  PinId pin;
  double required = 0.0;     ///< latest tolerable arrival [s]
  double arrival = 0.0;      ///< latest actual arrival [s]
};

/// Gate delays see a net's total capacitance (ground, receiver pins and
/// every coupling cap at face value, no effective-capacitance shielding:
/// the conservative signoff convention), and a port without an entry in
/// Options::input_arrivals switches at time 0.
struct Options {
  double clock_period = 1e-9;
  std::string clock_port;                      ///< name of the clock input port
  std::map<std::string, Interval> input_arrivals;  ///< per-port arrival windows
};

/// A pin's timing as sweep 1 left it.
struct SweepOneValue {
  PinId pin;
  PinTiming timing;
};

struct Result {
  std::vector<PinTiming> pins;       ///< indexed by PinId
  std::vector<NetTiming> nets;       ///< indexed by NetId
  std::vector<Endpoint> endpoints;   ///< DFF D pins and output ports
  /// Clock arrival window at each sequential instance's CK/EN pin,
  /// indexed by position in design.sequentials().
  std::vector<Interval> clock_arrivals;
  /// Kahn order of the instances (Design::topological_order()): the one
  /// levelization of this run, reused by noise::AnalysisContext::build.
  std::vector<InstId> order;
  int passes = 0;                    ///< full-pass fixpoint iterations (see above)

  // What run_incremental() reads of this run (see the header comment).
  /// Sweep-1 value of every pin that changed in a later sweep.
  std::vector<SweepOneValue> sweep1;
  /// Ranks (positions in `order`) of the instances sweep 2 starts from,
  /// ascending.
  std::vector<std::uint32_t> sweep2_seeds;
  std::size_t sweep1_reached = 0;    ///< instance output pins sweep 1 reached

  [[nodiscard]] const NetTiming& net(NetId id) const { return nets.at(id.index()); }
  [[nodiscard]] const PinTiming& pin(PinId id) const { return pins.at(id.index()); }
};

/// Capacity-based heap bytes a Result owns. Feeds the "sta" memory account
/// (size-accounting hook) and the session cache's per-slot byte gauge.
[[nodiscard]] std::size_t memory_bytes(const Result& r) noexcept;

/// Run STA. Throws std::runtime_error on combinational loops and on
/// propagation that has not converged after kMaxPasses sweeps, and
/// std::invalid_argument on inconsistent inputs.
[[nodiscard]] Result run(const net::Design& design, const para::Parasitics& para,
                         const Options& options = {});

/// An incremental run and the nets whose timing it moved.
struct Update {
  Result result;
  /// Nets whose NetTiming differs bitwise from the base's, ascending.
  std::vector<NetId> changed_nets;
};

/// Re-time `design` from `base`, the Result of an earlier state of it (see
/// the header comment); equal field by field to run(design, para, options).
/// `edited_nets` must hold every net whose parasitics, driver cell or load
/// cells changed since `base`; the state must keep base's connectivity and
/// cell kinds (footprint-compatible swaps). Input arrivals and the clock
/// period may differ. Throws like run(), and
/// std::invalid_argument when `base` does not match the design or an edited
/// net lies outside it.
[[nodiscard]] Update run_incremental(const net::Design& design,
                                     const para::Parasitics& para, const Options& options,
                                     const Result& base,
                                     std::span<const NetId> edited_nets);

}  // namespace nw::sta
