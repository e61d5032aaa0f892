// Incremental (ECO) re-analysis: must match a full run when the changed
// set covers the real change.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "noise/context.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

void expect_same(const Result& a, const Result& b, const net::Design& d) {
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_NEAR(a.nets[i].total_peak, b.nets[i].total_peak, 1e-12)
        << "net " << d.net(NetId{i}).name;
    EXPECT_NEAR(a.nets[i].injected_peak, b.nets[i].injected_peak, 1e-12);
    EXPECT_NEAR(a.nets[i].width, b.nets[i].width, 1e-15);
    EXPECT_EQ(a.nets[i].contributions.size(), b.nets[i].contributions.size());
  }
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.noisy_nets, b.noisy_nets);
  EXPECT_EQ(a.endpoints_checked, b.endpoints_checked);
}

TEST(Incremental, NoChangeReproducesFullResult) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 16;
  cfg.segments = 3;
  const gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  Options o;
  o.clock_period = g.sta_options.clock_period;
  const Result full = analyze(g.design, g.para, timing, o);
  const Result inc =
      analyze_incremental(g.design, g.para, timing, o, full, {});
  expect_same(full, inc, g.design);
}

TEST(Incremental, CouplingChangeMatchesFullRerun) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 16;
  cfg.segments = 3;
  gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  Options o;
  o.clock_period = g.sta_options.clock_period;
  const Result before = analyze(g.design, g.para, timing, o);

  // ECO: add a strong coupling between w5 and w6 (an extra routed segment).
  const NetId w5 = *g.design.find_net("w5");
  const NetId w6 = *g.design.find_net("w6");
  g.para.add_coupling(w5, 1, w6, 1, 10 * FF);

  const Result full = analyze(g.design, g.para, timing, o);
  const std::vector<NetId> changed{w5, w6};
  const Result inc = analyze_incremental(g.design, g.para, timing, o, before, changed);
  expect_same(full, inc, g.design);
  // The change is visible (sanity that the test is not vacuous).
  EXPECT_GT(full.net(w5).total_peak, before.net(w5).total_peak);
}

TEST(Incremental, PropagationDownstreamOfChangeIsRefreshed) {
  // The changed victim feeds gates; its propagated noise must be updated
  // even on nets far from the coupling change.
  const lib::Library library = lib::default_library();
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 8;
  cfg.gates = 120;
  cfg.levels = 5;
  cfg.coupling_prob = 0.6;
  gen::Generated g = gen::make_rand_logic(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  Options o;
  o.clock_period = g.sta_options.clock_period;
  const Result before = analyze(g.design, g.para, timing, o);

  // Pick some coupled pair and crank its coupling.
  ASSERT_FALSE(g.para.couplings().empty());
  const auto& cc = g.para.couplings().front();
  const NetId a = cc.net_a;
  const NetId b = cc.net_b;
  g.para.add_coupling(a, cc.node_a, b, cc.node_b, 40 * FF);

  const Result full = analyze(g.design, g.para, timing, o);
  const std::vector<NetId> changed{a, b};
  const Result inc = analyze_incremental(g.design, g.para, timing, o, before, changed);
  expect_same(full, inc, g.design);
}

TEST(Incremental, BadChangedNetThrows) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 4;
  const gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options o;
  const Result full = analyze(g.design, g.para, timing, o);
  const std::vector<NetId> bogus{NetId{99999}};
  EXPECT_THROW(
      (void)analyze_incremental(g.design, g.para, timing, o, full, bogus),
      std::invalid_argument);
  const Result empty;
  const std::vector<NetId> none;
  EXPECT_THROW((void)analyze_incremental(g.design, g.para, timing, o, empty, none),
               std::invalid_argument);
}

TEST(Incremental, ValidationErrorsNameIdAndRange) {
  // Structured diagnostics: the exception says *which* id is bad and what
  // the valid range is — a session server forwards these verbatim.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 4;
  const gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options o;
  const Result full = analyze(g.design, g.para, timing, o);

  try {
    (void)analyze_incremental(g.design, g.para, timing, o, full,
                              std::vector<NetId>{NetId{99999}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("99999"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(g.design.net_count())), std::string::npos)
        << msg;
  }

  // A previous result without this design's endpoints and noisy flags
  // (hand-built, or from another design) is refused, not indexed.
  Result partial = full;
  partial.noisy.clear();
  EXPECT_THROW((void)analyze_incremental(g.design, g.para, timing, o, partial,
                                         std::vector<NetId>{}),
               std::invalid_argument);
  partial = full;
  ASSERT_FALSE(partial.endpoint_slacks.empty());
  partial.endpoint_slacks.pop_back();
  EXPECT_THROW((void)analyze_incremental(g.design, g.para, timing, o, partial,
                                         std::vector<NetId>{}),
               std::invalid_argument);

  // Previous-result coverage mismatch names both sizes.
  Result stale = full;
  stale.nets.resize(2);
  try {
    (void)analyze_incremental(g.design, g.para, timing, o, stale,
                              std::vector<NetId>{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 nets"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(g.design.net_count())), std::string::npos)
        << msg;
  }
}

TEST(Incremental, DirtyClosureCoversCoupledNeighbours) {
  // The public closure helper: changed nets plus everything they couple
  // to, from the *raw* coupling list (not the threshold-filtered adjacency).
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 6;
  cfg.segments = 2;
  const gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  const AnalysisContext ctx = AnalysisContext::build(g.design, g.para, timing, Options{});

  const NetId w2 = *g.design.find_net("w2");
  const std::vector<NetId> changed{w2};
  const std::vector<NetId> closure = ctx.dirty_closure(g.para, changed);

  // Sorted, unique, includes the seed.
  EXPECT_TRUE(std::is_sorted(closure.begin(), closure.end(),
                             [](NetId a, NetId b) { return a.value() < b.value(); }));
  EXPECT_NE(std::find(closure.begin(), closure.end(), w2), closure.end());
  // Every net coupled to w2 is in the closure.
  for (const auto ci : g.para.couplings_of(w2)) {
    const NetId other = g.para.coupling(ci).other_net(w2);
    EXPECT_NE(std::find(closure.begin(), closure.end(), other), closure.end())
        << "missing coupled net " << g.design.net(other).name;
  }
  // Out-of-range ids are rejected with the offending value in the message.
  try {
    (void)ctx.dirty_closure(g.para, std::vector<NetId>{NetId{777777}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("777777"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace nw::noise
