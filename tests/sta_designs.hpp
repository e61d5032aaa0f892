// Designs and comparisons shared by the STA and session suites: the
// ripple-divider chains and shuffled sequential designs whose clock trees
// need several sweeps, the cell groups ECO swaps draw from, and a
// field-by-field, bitwise comparison of two STA results.
#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/bus.hpp"
#include "library/library.hpp"
#include "netlist/design.hpp"
#include "parasitics/rcnet.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nw::sta::fixtures {

/// Groups of footprint-compatible cells of the default library: any member
/// may replace any other (set_instance_cell), though arcs change sense.
inline const std::vector<std::vector<std::string>> kSwapGroups = {
    {"INV_X1", "INV_X2", "INV_X4", "BUF_X1", "BUF_X2", "BUF_X4"},
    {"NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1", "XOR2_X1"},
};

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
inline bool same_bits(const Interval& a, const Interval& b) {
  return same_bits(a.lo, b.lo) && same_bits(a.hi, b.hi);
}

/// First field where two results differ bitwise, or "" when they agree.
inline std::string first_difference(const Result& got, const Result& want) {
  std::ostringstream os;
  if (got.passes != want.passes) {
    os << "passes " << got.passes << " vs " << want.passes;
    return os.str();
  }
  if (got.order != want.order) return "order";
  if (got.pins.size() != want.pins.size()) return "pin count";
  for (std::size_t i = 0; i < got.pins.size(); ++i) {
    const PinTiming& a = got.pins[i];
    const PinTiming& b = want.pins[i];
    if (!same_bits(a.rise, b.rise) || !same_bits(a.fall, b.fall) ||
        !same_bits(a.slew_min, b.slew_min) || !same_bits(a.slew_max, b.slew_max)) {
      os << "pin " << i;
      return os.str();
    }
  }
  if (got.nets.size() != want.nets.size()) return "net count";
  for (std::size_t i = 0; i < got.nets.size(); ++i) {
    const NetTiming& a = got.nets[i];
    const NetTiming& b = want.nets[i];
    if (!same_bits(a.window, b.window) || !same_bits(a.slew_min, b.slew_min) ||
        !same_bits(a.slew_max, b.slew_max)) {
      os << "net " << i;
      return os.str();
    }
  }
  if (got.endpoints.size() != want.endpoints.size()) return "endpoint count";
  for (std::size_t i = 0; i < got.endpoints.size(); ++i) {
    const Endpoint& a = got.endpoints[i];
    const Endpoint& b = want.endpoints[i];
    if (a.pin != b.pin || !same_bits(a.required, b.required) ||
        !same_bits(a.arrival, b.arrival)) {
      os << "endpoint " << i;
      return os.str();
    }
  }
  if (got.clock_arrivals.size() != want.clock_arrivals.size()) return "clock arrival count";
  for (std::size_t i = 0; i < got.clock_arrivals.size(); ++i) {
    if (!same_bits(got.clock_arrivals[i], want.clock_arrivals[i])) {
      os << "clock arrival " << i;
      return os.str();
    }
  }
  return "";
}

/// Ripple divider: port clk_in clocks ff0, ffK.Q clocks ffK+1, and the last
/// stage's Q (with no stages, the clock net) drives port out.
struct Ripple {
  std::size_t stages = 0;
  /// Declare the flops last stage first, so the Kahn order visits them in
  /// reverse and each stage's launch waits one more sweep.
  bool reversed = false;
  /// Each stage toggles (ffK.D = INV(ffK.Q)) instead of reading port d.
  bool toggle = false;
  /// Also a flop declared before all others and clocked by the last Q,
  /// with its own Q left open: its clock changes on the last sweep.
  bool open_tap = false;
};

inline gen::Generated make_ripple(const lib::Library& library, const Ripple& shape) {
  const std::size_t stages = shape.stages;
  gen::Generated g{net::Design(library, "ripple" + std::to_string(stages)),
                   para::Parasitics(0), Options{}};
  net::Design& d = g.design;
  const NetId clk = d.add_net("clk");
  const NetId data = d.add_net("d");
  d.add_input_port("clk_in", clk, {150.0, 15 * PS});
  d.add_input_port("d", data, {500.0, 20 * PS});
  std::vector<NetId> q(stages);
  for (std::size_t k = 0; k < stages; ++k) q[k] = d.add_net("q" + std::to_string(k));
  const NetId last = stages == 0 ? clk : q.back();
  if (shape.open_tap) d.connect(d.add_instance("tap", "DFF_X1"), "CK", last);
  std::vector<InstId> ff(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    const std::size_t k = shape.reversed ? stages - 1 - i : i;
    ff[k] = d.add_instance("ff" + std::to_string(k), "DFF_X1");
  }
  for (std::size_t k = 0; k < stages; ++k) {
    NetId dk = data;
    if (shape.toggle) {
      dk = d.add_net("t" + std::to_string(k));
      const InstId inv = d.add_instance("inv" + std::to_string(k), "INV_X1");
      d.connect(inv, "A", q[k]);
      d.connect(inv, "Y", dk);
    }
    d.connect(ff[k], "D", dk);
    d.connect(ff[k], "CK", k == 0 ? clk : q[k - 1]);
    d.connect(ff[k], "Q", q[k]);
  }
  d.add_output_port("out", last);
  g.para = para::Parasitics(d.net_count());
  for (std::size_t i = 0; i < d.net_count(); ++i) g.para.net(NetId{i}).add_cap(0, 2 * FF);
  g.sta_options.clock_port = "clk_in";
  return g;
}

/// A small random sequential design whose instances are created in shuffled
/// order: a clock-buffer tree (buffers declared before and after the flops
/// they clock), DFFs and latches (some clocked by a root-clocked flop's Q),
/// and logic reading ports and Q outputs. Some nets carry a resistive wire
/// with only part of their loads attached, some are coupled.
inline gen::Generated make_shuffled(const lib::Library& library, std::uint64_t seed) {
  Rng rng(seed);
  gen::Generated g{net::Design(library, "shuffled" + std::to_string(seed)),
                   para::Parasitics(0), Options{}};
  net::Design& d = g.design;
  struct Spec {
    std::string name;
    std::string cell;
    std::vector<std::pair<std::string, NetId>> pins;
  };
  std::vector<Spec> specs;

  const NetId clk = d.add_net("clk");
  d.add_input_port("clk_in", clk, {150.0, 15 * PS});
  std::vector<NetId> signals;  // nets logic may read without forming a loop
  for (int i = 0; i < 3; ++i) {
    const NetId n = d.add_net("in" + std::to_string(i));
    d.add_input_port("in" + std::to_string(i), n, {400.0, 25 * PS});
    g.sta_options.input_arrivals["in" + std::to_string(i)] =
        Interval{rng.uniform(0.0, 100 * PS), rng.uniform(100 * PS, 300 * PS)};
    signals.push_back(n);
  }

  // Clock tree: each buffer reads the port or an earlier buffer.
  std::vector<NetId> clocks{clk};
  const auto n_bufs = static_cast<std::size_t>(rng.range(1, 4));
  for (std::size_t b = 0; b < n_bufs; ++b) {
    const NetId y = d.add_net("ck" + std::to_string(b));
    specs.push_back({"cb" + std::to_string(b), "BUF_X2",
                     {{"A", clocks[rng.below(clocks.size())]}, {"Y", y}}});
    clocks.push_back(y);
  }
  // Flops: first a root-clocked rank, then a rank clocked by its Q outputs.
  std::vector<NetId> root_q;
  const auto n_flops = static_cast<std::size_t>(rng.range(2, 6));
  std::vector<std::size_t> flop_specs;
  for (std::size_t f = 0; f < 2 * n_flops; ++f) {
    const bool divided = f >= n_flops && !root_q.empty() && rng.chance(0.5);
    const NetId ck = divided ? root_q[rng.below(root_q.size())] : clocks[rng.below(clocks.size())];
    const NetId q = d.add_net("q" + std::to_string(f));
    const bool latch = rng.chance(0.25);
    flop_specs.push_back(specs.size());
    specs.push_back({"ff" + std::to_string(f), latch ? "LATCH_X1" : "DFF_X1",
                     {{latch ? "EN" : "CK", ck}, {"Q", q}}});
    if (f < n_flops) root_q.push_back(q);
    signals.push_back(q);
  }
  // Logic over ports, Q outputs and earlier gates (acyclic by construction).
  const char* cells[] = {"INV_X1", "BUF_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1", "AOI21_X1"};
  const int arity[] = {1, 1, 2, 2, 2, 3};
  const char* inputs[] = {"A", "B", "C"};
  const auto n_gates = static_cast<std::size_t>(rng.range(4, 16));
  for (std::size_t gi = 0; gi < n_gates; ++gi) {
    const std::size_t c = rng.below(6);
    Spec s{"g" + std::to_string(gi), cells[c], {}};
    for (int a = 0; a < arity[c]; ++a) {
      s.pins.emplace_back(inputs[a], signals[rng.below(signals.size())]);
    }
    const NetId y = d.add_net("n" + std::to_string(gi));
    s.pins.emplace_back("Y", y);
    specs.push_back(std::move(s));
    signals.push_back(y);
  }
  // Data pins read any signal; a few signals leave through output ports.
  for (const std::size_t f : flop_specs) {
    specs[f].pins.emplace_back("D", signals[rng.below(signals.size())]);
  }
  for (int o = 0; o < 3; ++o) {
    d.add_output_port("out" + std::to_string(o), signals[rng.below(signals.size())]);
  }

  // Create the instances in shuffled order, then wire them.
  for (std::size_t i = specs.size(); i > 1; --i) std::swap(specs[i - 1], specs[rng.below(i)]);
  for (const Spec& s : specs) {
    const InstId id = d.add_instance(s.name, s.cell);
    for (const auto& [pin, net_id] : s.pins) d.connect(id, pin, net_id);
  }

  g.para = para::Parasitics(d.net_count());
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const NetId id{i};
    para::RcNet& rc = g.para.net(id);
    rc.add_cap(0, rng.uniform(1 * FF, 4 * FF));
    if (rng.chance(0.6)) {
      const auto far = rc.add_node(rng.uniform(1 * FF, 6 * FF));
      rc.add_res(0, far, rng.uniform(50.0, 2000.0));
      for (const PinId load : d.net(id).loads) {
        if (rng.chance(0.5)) {
          rc.add_res(far, rc.add_node(rng.uniform(0.0, 1 * FF), load),
                     rng.uniform(10.0, 500.0));
        }
      }
    }
  }
  for (int c = 0; c < 6; ++c) {
    const NetId a{rng.below(d.net_count())};
    const NetId b{rng.below(d.net_count())};
    if (a != b) g.para.add_coupling(a, 0, b, 0, rng.uniform(0.5 * FF, 5 * FF));
  }
  g.sta_options.clock_port = "clk_in";
  return g;
}

}  // namespace nw::sta::fixtures
