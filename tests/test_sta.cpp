// Static timing: arrival windows, slews, clock propagation, endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/suite.hpp"
#include "gen/bus.hpp"
#include "gen/pipeline.hpp"
#include "library/library.hpp"
#include "netlist/design.hpp"
#include "parasitics/rcnet.hpp"
#include "parasitics/reduce.hpp"
#include "sta/sta.hpp"
#include "sta_designs.hpp"
#include "util/units.hpp"

namespace nw::sta {
namespace {

using namespace fixtures;

// ---------------------------------------------------------------------------
// Reference STA: the full-pass fixpoint. Every pass evaluates every arc of
// every instance in topological order, until a pass changes nothing or
// kMaxPasses passes have run; wire delays come from one Elmore vector per
// net, looked up through node_of_pin on every arc. run()'s worklist must
// equal it field by field, `passes` included.

struct RefWireInfo {
  std::vector<double> elmore;  ///< per RC node, from the root
  double load_cap = 0.0;       ///< ground + pin + coupling [F]
};

RefWireInfo ref_wire_info(const net::Design& d, const para::Parasitics& para, NetId id) {
  RefWireInfo w;
  const para::RcNet& rc = para.net(id);
  std::vector<double> extra(rc.node_count(), 0.0);
  for (const PinId load : d.net(id).loads) {
    const auto node = rc.node_of_pin(load);
    const double cap = d.pin_cap(load);
    if (node < rc.node_count()) {
      extra[node] += cap;
    } else {
      extra[0] += cap;
    }
  }
  for (const auto ci : para.couplings_of(id)) {
    const auto& cc = para.coupling(ci);
    extra[cc.node_on(id)] += cc.c;
  }
  if (rc.res_count() == 0) {
    w.elmore.assign(rc.node_count(), 0.0);
  } else {
    w.elmore = para::elmore_delays(rc, extra);
  }
  w.load_cap = rc.total_ground_cap();
  for (const double e : extra) w.load_cap += e;
  return w;
}

bool ref_merge(PinTiming& acc, const PinTiming& t) {
  const PinTiming before = acc;
  acc.rise = acc.rise.hull(t.rise);
  acc.fall = acc.fall.hull(t.fall);
  if (!t.reached()) return false;
  if (!before.reached()) {
    acc.slew_min = t.slew_min;
    acc.slew_max = t.slew_max;
  } else {
    acc.slew_min = std::min(acc.slew_min, t.slew_min);
    acc.slew_max = std::max(acc.slew_max, t.slew_max);
  }
  return !(before.rise == acc.rise) || !(before.fall == acc.fall) ||
         before.slew_min != acc.slew_min || before.slew_max != acc.slew_max;
}

Result reference_run(const net::Design& design, const para::Parasitics& para,
                     const Options& opt) {
  Result res;
  res.pins.assign(design.pin_count(), PinTiming{});
  res.nets.assign(design.net_count(), NetTiming{});
  std::vector<RefWireInfo> wires;
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    wires.push_back(ref_wire_info(design, para, NetId{i}));
  }
  for (const PinId p : design.input_ports()) {
    PinTiming t;
    Interval arr{0.0, 0.0};
    const auto it = opt.input_arrivals.find(design.pin(p).port_name);
    if (it != opt.input_arrivals.end()) arr = it->second;
    t.rise = arr;
    t.fall = arr;
    t.slew_min = t.slew_max = design.port_drive(p).slew;
    res.pins[p.index()] = t;
  }
  res.order = design.topological_order();

  auto load_pin_timing = [&](PinId load) -> PinTiming {
    const net::Pin& lp = design.pin(load);
    if (!lp.net.valid()) return {};
    const net::Net& n = design.net(lp.net);
    if (!n.driver.valid()) return {};
    PinTiming t = res.pins[n.driver.index()];
    const para::RcNet& rc = para.net(lp.net);
    const auto node = rc.node_of_pin(load);
    const double wd = (node < rc.node_count() && node < wires[lp.net.index()].elmore.size())
                          ? wires[lp.net.index()].elmore[node]
                          : 0.0;
    t.rise = t.rise.shifted(wd);
    t.fall = t.fall.shifted(wd);
    return t;
  };

  bool changed = true;
  int pass = 0;
  while (changed && pass < kMaxPasses) {
    changed = false;
    ++pass;
    for (const InstId inst_id : res.order) {
      const net::Instance& inst = design.instance(inst_id);
      const lib::Cell& cell = design.cell_of(inst_id);
      for (const auto& arc : cell.arcs) {
        const PinId in_pin = inst.pins[arc.from_pin];
        const PinId out_pin = inst.pins[arc.to_pin];
        const net::Pin& op = design.pin(out_pin);
        if (!op.net.valid()) continue;
        const double load = wires[op.net.index()].load_cap;
        const PinTiming in_t = load_pin_timing(in_pin);
        if (!in_t.reached()) continue;
        PinTiming out_t;
        auto add_edge = [&](bool out_rise, const Interval& in_arr) {
          if (in_arr.is_empty()) return;
          const auto& dt = out_rise ? arc.delay_rise : arc.delay_fall;
          const auto& st = out_rise ? arc.slew_rise : arc.slew_fall;
          const double d_min = dt.lookup(in_t.slew_min, load);
          const double d_max = dt.lookup(in_t.slew_max, load);
          const double s0 = st.lookup(in_t.slew_min, load);
          const double s1 = st.lookup(in_t.slew_max, load);
          PinTiming tmp;
          (out_rise ? tmp.rise : tmp.fall) = Interval{in_arr.lo + std::min(d_min, d_max),
                                                      in_arr.hi + std::max(d_min, d_max)};
          tmp.slew_min = std::min(s0, s1);
          tmp.slew_max = std::max(s0, s1);
          ref_merge(out_t, tmp);
        };
        switch (arc.sense) {
          case lib::ArcSense::kPositiveUnate:
            add_edge(true, in_t.rise);
            add_edge(false, in_t.fall);
            break;
          case lib::ArcSense::kNegativeUnate:
            add_edge(true, in_t.fall);
            add_edge(false, in_t.rise);
            break;
          case lib::ArcSense::kNonUnate:
            add_edge(true, in_t.window());
            add_edge(false, in_t.window());
            break;
        }
        if (out_t.reached()) changed |= ref_merge(res.pins[out_pin.index()], out_t);
      }
    }
  }
  res.passes = pass;

  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const net::Net& n = design.net(NetId{i});
    if (!n.driver.valid()) continue;
    const PinTiming& t = res.pins[n.driver.index()];
    res.nets[i].window = t.window();
    res.nets[i].slew_min = t.slew_min;
    res.nets[i].slew_max = t.slew_max;
  }
  for (const InstId s : design.sequentials()) {
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    Interval clk = Interval::empty();
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role == lib::PinRole::kClock ||
          cell.pins[pi].role == lib::PinRole::kEnable) {
        clk = clk.hull(load_pin_timing(inst.pins[pi]).window());
      }
    }
    res.clock_arrivals.push_back(clk);
  }
  for (std::size_t si = 0; si < design.sequentials().size(); ++si) {
    const InstId s = design.sequentials()[si];
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      const PinTiming t = load_pin_timing(inst.pins[pi]);
      if (!t.reached()) continue;
      Endpoint e;
      e.pin = inst.pins[pi];
      const double clk_late =
          res.clock_arrivals[si].is_empty() ? 0.0 : res.clock_arrivals[si].hi;
      e.required = clk_late + opt.clock_period - cell.setup;
      e.arrival = t.window().hi;
      res.endpoints.push_back(e);
    }
  }
  for (const PinId p : design.output_ports()) {
    const PinTiming t = load_pin_timing(p);
    if (!t.reached()) continue;
    Endpoint e;
    e.pin = p;
    e.required = opt.clock_period;
    e.arrival = t.window().hi;
    res.endpoints.push_back(e);
  }
  return res;
}

void expect_matches_reference(const gen::Generated& g) {
  const Result got = run(g.design, g.para, g.sta_options);
  const Result want = reference_run(g.design, g.para, g.sta_options);
  EXPECT_EQ(first_difference(got, want), "") << g.design.name();
}

class StaTest : public ::testing::Test {
 protected:
  lib::Library library_ = lib::default_library();
};

TEST_F(StaTest, ChainDelaysAccumulate) {
  net::Design d(library_, "chain");
  const NetId n0 = d.add_net("n0");
  const NetId n1 = d.add_net("n1");
  const NetId n2 = d.add_net("n2");
  d.add_input_port("in", n0, {500.0, 20 * PS});
  const InstId g1 = d.add_instance("g1", "INV_X1");
  const InstId g2 = d.add_instance("g2", "INV_X1");
  d.connect(g1, "A", n0);
  d.connect(g1, "Y", n1);
  d.connect(g2, "A", n1);
  d.connect(g2, "Y", n2);
  d.add_output_port("out", n2);

  para::Parasitics p(d.net_count());
  for (std::size_t i = 0; i < d.net_count(); ++i) p.net(NetId{i}).add_cap(0, 2e-15);

  Options opt;
  opt.clock_period = 1 * NS;
  const Result r = run(d, p, opt);

  // Arrivals strictly increase along the chain.
  EXPECT_DOUBLE_EQ(r.net(n0).window.lo, 0.0);
  EXPECT_GT(r.net(n1).window.lo, 0.0);
  EXPECT_GT(r.net(n2).window.lo, r.net(n1).window.lo);
  EXPECT_TRUE(r.net(n2).switches());
  // One PO endpoint with positive slack at a relaxed period.
  ASSERT_EQ(r.endpoints.size(), 1u);
  EXPECT_GT(r.endpoints[0].required - r.endpoints[0].arrival, 0.0);
}

TEST_F(StaTest, InputArrivalWindowPropagates) {
  net::Design d(library_, "win");
  const NetId n0 = d.add_net("n0");
  const NetId n1 = d.add_net("n1");
  d.add_input_port("in", n0, {500.0, 20 * PS});
  const InstId g = d.add_instance("g", "BUF_X1");
  d.connect(g, "A", n0);
  d.connect(g, "Y", n1);
  d.add_output_port("out", n1);
  para::Parasitics p(d.net_count());
  for (std::size_t i = 0; i < d.net_count(); ++i) p.net(NetId{i}).add_cap(0, 2e-15);

  Options opt;
  opt.input_arrivals["in"] = Interval{100 * PS, 250 * PS};
  const Result r = run(d, p, opt);
  // Window width is preserved (same min/max path) and shifted by delay.
  EXPECT_NEAR(r.net(n1).window.length(), 150 * PS, 1 * PS);
  EXPECT_GT(r.net(n1).window.lo, 100 * PS);
}

TEST_F(StaTest, WireDelayShiftsLoadPins) {
  net::Design d(library_, "wire");
  const NetId n0 = d.add_net("n0");
  const NetId n1 = d.add_net("n1");
  d.add_input_port("in", n0, {500.0, 20 * PS});
  const InstId g = d.add_instance("g", "INV_X1");
  d.connect(g, "A", n0);
  d.connect(g, "Y", n1);
  d.add_output_port("out", n1);

  // Large wire RC on n0.
  para::Parasitics p(d.net_count());
  para::RcNet& rc = p.net(n0);
  const auto far = rc.add_node(50e-15);
  rc.add_res(0, far, 2000.0);
  rc.attach_pin(far, d.net(n0).loads.front());
  p.net(n1).add_cap(0, 2e-15);

  const Result r = run(d, p, {});
  // The receiving gate sees the Elmore-delayed arrival; with ~100 ps of
  // wire delay the output must arrive later than the gate delay alone.
  const Result r_nowire = [&] {
    para::Parasitics p2(d.net_count());
    p2.net(n0).add_cap(0, 50e-15);  // same cap, no resistance
    p2.net(n1).add_cap(0, 2e-15);
    return run(d, p2, {});
  }();
  EXPECT_GT(r.net(n1).window.lo, r_nowire.net(n1).window.lo + 50 * PS);
}

TEST_F(StaTest, NonUnateExpandsWindow) {
  net::Design d(library_, "xor");
  const NetId a = d.add_net("a");
  const NetId b = d.add_net("b");
  const NetId y = d.add_net("y");
  d.add_input_port("ia", a, {500.0, 20 * PS});
  d.add_input_port("ib", b, {500.0, 20 * PS});
  const InstId g = d.add_instance("g", "XOR2_X1");
  d.connect(g, "A", a);
  d.connect(g, "B", b);
  d.connect(g, "Y", y);
  d.add_output_port("out", y);
  para::Parasitics p(d.net_count());
  for (std::size_t i = 0; i < d.net_count(); ++i) p.net(NetId{i}).add_cap(0, 2e-15);

  Options opt;
  opt.input_arrivals["ia"] = Interval{0.0, 50 * PS};
  opt.input_arrivals["ib"] = Interval{200 * PS, 300 * PS};
  const Result r = run(d, p, opt);
  // The output can switch from either input: window spans both.
  EXPECT_LT(r.net(y).window.lo, 150 * PS);
  EXPECT_GT(r.net(y).window.hi, 200 * PS);
}

TEST_F(StaTest, SequentialLaunchUsesClockTree) {
  gen::PipelineConfig cfg;
  cfg.paths = 4;
  gen::Generated g = gen::make_pipeline(lib::default_library(), cfg);
  // Use the member library to keep lifetimes simple.
  gen::Generated g2 = gen::make_pipeline(library_, cfg);
  const Result r = run(g2.design, g2.para, g2.sta_options);
  // Every capture-flop data pin is an endpoint; all reachable.
  EXPECT_EQ(r.endpoints.size(), 2u * cfg.paths + cfg.paths);  // D pins + POs
  // Clock arrivals exist and are positive (root + leaf buffer delays).
  ASSERT_EQ(r.clock_arrivals.size(), g2.design.sequentials().size());
  for (const auto& clk : r.clock_arrivals) {
    ASSERT_FALSE(clk.is_empty());
    EXPECT_GT(clk.lo, 0.0);
  }
  // Fixpoint needed more than one pass (flop launch after clock tree).
  EXPECT_GE(r.passes, 2);
}

TEST_F(StaTest, WorklistMatchesFullPassReferenceOnSuite) {
  for (const bench::Case& c : bench::make_suite(library_)) {
    SCOPED_TRACE(c.name);
    expect_matches_reference(c.generated);
  }
}

TEST_F(StaTest, WorklistMatchesFullPassReferenceOnRippleChains) {
  for (const bool reversed : {false, true}) {
    for (const bool toggle : {false, true}) {
      for (const bool open_tap : {false, true}) {
        for (std::size_t stages = 0; stages <= 6; ++stages) {  // 0: no flops
          SCOPED_TRACE(std::to_string(stages) + (reversed ? " reversed" : " forward") +
                       (toggle ? " toggle" : "") + (open_tap ? " tap" : ""));
          expect_matches_reference(
              make_ripple(library_, {stages, reversed, toggle, open_tap}));
        }
      }
    }
  }
}

TEST_F(StaTest, WorklistMatchesFullPassReferenceOnShuffledDesigns) {
  int multi_pass = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const gen::Generated g = make_shuffled(library_, seed);
    expect_matches_reference(g);
    multi_pass += run(g.design, g.para, g.sta_options).passes > 2 ? 1 : 0;
  }
  // Shuffled creation must reach beyond the ordinary two-pass fixpoint.
  EXPECT_GT(multi_pass, 0);
}

TEST_F(StaTest, RippleChainWithinBoundConverges) {
  // Reversed declaration: stage k launches on sweep k + 1, so six stages
  // need all kMaxPasses sweeps. Every variant reaches the full fixpoint:
  //  - D tied to a port: the last sweep leaves nothing to revisit;
  //  - a toggle divider: each INV changes a D pin, which starts no arc, so
  //    it must not send its flop into another sweep;
  //  - an open tap: the last sweep changes the tap's clock, and one more
  //    evaluation shows its (unconnected) output cannot change.
  for (const bool toggle : {false, true}) {
    for (const bool open_tap : {false, true}) {
      SCOPED_TRACE(std::string(toggle ? "toggle" : "port") + (open_tap ? " tap" : ""));
      const gen::Generated g = make_ripple(library_, {6, true, toggle, open_tap});
      Result r;
      ASSERT_NO_THROW(r = run(g.design, g.para, g.sta_options));
      EXPECT_EQ(r.passes, kMaxPasses);
      ASSERT_EQ(r.clock_arrivals.size(), open_tap ? 7u : 6u);
      for (const Interval& clk : r.clock_arrivals) EXPECT_FALSE(clk.is_empty());
      const auto out =
          std::find_if(r.endpoints.begin(), r.endpoints.end(), [&](const Endpoint& e) {
            return g.design.pin(e.pin).port_name == "out";
          });
      EXPECT_NE(out, r.endpoints.end());
    }
  }
  // Declared in stage order, the whole chain settles in one sweep.
  const gen::Generated fwd = make_ripple(library_, {6, false});
  EXPECT_EQ(run(fwd.design, fwd.para, fwd.sta_options).passes, 2);
}

TEST_F(StaTest, RippleChainBeyondBoundThrowsNamingAnInstance) {
  // Eight reversed stages: ff6's output still changes after kMaxPasses
  // sweeps. Stopping there would leave ff7 unclocked and `out` unreached,
  // and the noise analysis would report a clean design.
  const gen::Generated g = make_ripple(library_, {8, true});
  try {
    (void)run(g.design, g.para, g.sta_options);
    FAIL() << "expected a non-convergence error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("instance 'ff6'"), std::string::npos) << what;
    EXPECT_NE(what.find("in " + std::to_string(kMaxPasses) + " passes"), std::string::npos)
        << what;
    EXPECT_NE(what.find("clock chain deeper than"), std::string::npos) << what;
    EXPECT_NE(what.find("clock loop through sequential cells"), std::string::npos) << what;
  }
}

TEST_F(StaTest, ResultKeepsTheKahnOrder) {
  gen::PipelineConfig cfg;
  cfg.paths = 4;
  const gen::Generated g = gen::make_pipeline(library_, cfg);
  const Result r = run(g.design, g.para, g.sta_options);
  EXPECT_EQ(r.order, g.design.topological_order());
  EXPECT_GE(memory_bytes(r), r.order.capacity() * sizeof(InstId));
}

TEST_F(StaTest, SlewRangeTracked) {
  gen::BusConfig cfg;
  cfg.bits = 8;
  gen::Generated g = gen::make_bus(library_, cfg);
  const Result r = run(g.design, g.para, g.sta_options);
  const NetId w0 = *g.design.find_net("w0");
  EXPECT_GT(r.net(w0).slew_min, 0.0);
  EXPECT_GE(r.net(w0).slew_max, r.net(w0).slew_min);
}

TEST_F(StaTest, MismatchedParasiticsThrow) {
  net::Design d(library_, "x");
  d.add_net("n");
  para::Parasitics p(5);
  EXPECT_THROW((void)run(d, p, {}), std::invalid_argument);
}

TEST_F(StaTest, EndpointSlackRespondsToPeriod) {
  gen::PipelineConfig cfg;
  cfg.paths = 4;
  gen::Generated g = gen::make_pipeline(library_, cfg);
  sta::Options o = g.sta_options;
  o.clock_period = 2e-9;
  const Result relaxed = run(g.design, g.para, o);
  o.clock_period = 0.2e-9;
  const Result tight = run(g.design, g.para, o);
  const auto worst_slack = [](const Result& r) {
    double w = 1e30;
    for (const Endpoint& e : r.endpoints) w = std::min(w, e.required - e.arrival);
    return w;
  };
  EXPECT_GT(worst_slack(relaxed), worst_slack(tight));
  EXPECT_LT(worst_slack(tight), 0.0);  // 200 ps is infeasible here
}

TEST_F(StaTest, UnreachedNetsDoNotSwitch) {
  net::Design d(library_, "dangling");
  const NetId n = d.add_net("n");
  const NetId y = d.add_net("y");
  const InstId g = d.add_instance("g", "INV_X1");
  d.connect(g, "A", n);  // n has no driver: never switches
  d.connect(g, "Y", y);
  d.add_output_port("out", y);
  para::Parasitics p(d.net_count());
  const Result r = run(d, p, {});
  EXPECT_FALSE(r.net(n).switches());
  EXPECT_FALSE(r.net(y).switches());
  EXPECT_TRUE(r.endpoints.empty());
}

}  // namespace
}  // namespace nw::sta
