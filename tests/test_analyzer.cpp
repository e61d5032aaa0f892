// Noise analyzer: mode semantics, temporal filtering, propagation,
// latch sensitivity windows, refinement.
#include <gtest/gtest.h>

#include "gen/bus.hpp"
#include "gen/pipeline.hpp"
#include "library/library.hpp"
#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

/// Hand-built fixture: victim wire -> DFF data pin, two aggressor wires
/// with controllable arrival windows and coupling.
struct SeqFixture {
  lib::Library library = lib::default_library();
  net::Design design{library, "seq_fixture"};
  NetId victim, agg1, agg2, clk;
  double cc1 = 40 * FF;
  double cc2 = 25 * FF;

  explicit SeqFixture(double c1 = 40 * FF, double c2 = 25 * FF) : cc1(c1), cc2(c2) {
    victim = design.add_net("victim");
    agg1 = design.add_net("agg1");
    agg2 = design.add_net("agg2");
    clk = design.add_net("clk");
    // Weak victim holder for big glitches.
    design.add_input_port("vin", victim, {4000.0, 30 * PS});
    design.add_input_port("a1", agg1, {300.0, 15 * PS});
    design.add_input_port("a2", agg2, {300.0, 15 * PS});
    design.add_input_port("ck", clk, {150.0, 10 * PS});
    const InstId ff = design.add_instance("ff", "DFF_X1");
    design.connect(ff, "D", victim);
    design.connect(ff, "CK", clk);
    const NetId q = design.add_net("q");
    design.connect(ff, "Q", q);
    design.add_output_port("qo", q);
    // Aggressors need receivers to be legal nets.
    for (const auto& [n, nm] : {std::pair{agg1, "r1"}, std::pair{agg2, "r2"}}) {
      const InstId rx = design.add_instance(nm, "INV_X1");
      design.connect(rx, "A", n);
      const NetId y = design.add_net(std::string(nm) + "y");
      design.connect(rx, "Y", y);
      design.add_output_port(std::string(nm) + "o", y);
    }
  }

  para::Parasitics make_para() const {
    para::Parasitics p(design.net_count());
    p.net(victim).add_cap(0, 3 * FF);
    p.net(agg1).add_cap(0, 3 * FF);
    p.net(agg2).add_cap(0, 3 * FF);
    p.add_coupling(victim, 0, agg1, 0, cc1);
    p.add_coupling(victim, 0, agg2, 0, cc2);
    for (std::size_t i = 0; i < design.net_count(); ++i) {
      if (p.net(NetId{i}).total_ground_cap() == 0.0) p.net(NetId{i}).add_cap(0, 1 * FF);
    }
    return p;
  }

  sta::Result run_sta(const para::Parasitics& p, Interval a1_win, Interval a2_win,
                      double period = 1 * NS) const {
    sta::Options opt;
    opt.clock_period = period;
    opt.input_arrivals["a1"] = a1_win;
    opt.input_arrivals["a2"] = a2_win;
    opt.input_arrivals["vin"] = Interval{0.0, 0.0};
    opt.input_arrivals["ck"] = Interval{0.0, 0.0};
    return sta::run(design, p, opt);
  }
};

Options opts(AnalysisMode mode, double period = 1 * NS) {
  Options o;
  o.mode = mode;
  o.clock_period = period;
  return o;
}

TEST(Analyzer, AlignedAggressorsSumInAllModes) {
  const SeqFixture f;
  const auto p = f.make_para();
  const auto timing = f.run_sta(p, {0, 50 * PS}, {0, 50 * PS});
  for (const auto mode : {AnalysisMode::kNoFiltering, AnalysisMode::kSwitchingWindows,
                          AnalysisMode::kNoiseWindows}) {
    const Result r = analyze(f.design, p, timing, opts(mode));
    const NetNoise& nn = r.net(f.victim);
    EXPECT_EQ(nn.aggressor_count, 2u) << to_string(mode);
    // Both contribute: total exceeds either alone.
    ASSERT_EQ(nn.contributions.size(), 2u);
    const double pk0 = nn.contributions[0].peak;
    const double pk1 = nn.contributions[1].peak;
    EXPECT_NEAR(nn.total_peak, pk0 + pk1, 1e-9) << to_string(mode);
  }
}

TEST(Analyzer, DisjointWindowsPickWorstSingle) {
  const SeqFixture f;
  const auto p = f.make_para();
  const auto timing = f.run_sta(p, {0, 50 * PS}, {500 * PS, 550 * PS});

  const Result none = analyze(f.design, p, timing, opts(AnalysisMode::kNoFiltering));
  const Result sw = analyze(f.design, p, timing, opts(AnalysisMode::kSwitchingWindows));
  const NetNoise& nn_none = none.net(f.victim);
  const NetNoise& nn_sw = sw.net(f.victim);

  // No filtering sums both; switching windows keeps only the bigger one.
  EXPECT_GT(nn_none.total_peak, nn_sw.total_peak);
  const double pk_max =
      std::max(nn_sw.contributions[0].peak, nn_sw.contributions[1].peak);
  EXPECT_NEAR(nn_sw.total_peak, pk_max, 1e-9);
  // The worst alignment interval falls inside the bigger aggressor's window.
  std::size_t in_worst = 0;
  for (const auto& c : nn_sw.contributions) in_worst += c.in_worst;
  EXPECT_EQ(in_worst, 1u);
}

TEST(Analyzer, QuietAggressorFilteredOnlyWithWindows) {
  const SeqFixture f;
  const auto p = f.make_para();
  // agg2 gets an empty arrival (its port still exists, but we run STA with
  // no arrival for it by making it unreached: use an impossible window).
  sta::Options sopt;
  sopt.clock_period = 1 * NS;
  sopt.input_arrivals["a1"] = Interval{0, 50 * PS};
  sopt.input_arrivals["a2"] = Interval::empty();  // never switches
  sopt.input_arrivals["vin"] = Interval{0.0, 0.0};
  sopt.input_arrivals["ck"] = Interval{0.0, 0.0};
  const auto timing = sta::run(f.design, p, sopt);
  ASSERT_FALSE(timing.net(f.agg2).switches());

  const Result none = analyze(f.design, p, timing, opts(AnalysisMode::kNoFiltering));
  const Result sw = analyze(f.design, p, timing, opts(AnalysisMode::kSwitchingWindows));
  // No-filter mode still counts the quiet aggressor.
  EXPECT_EQ(none.net(f.victim).contributions.size(), 2u);
  EXPECT_EQ(sw.net(f.victim).contributions.size(), 1u);
  EXPECT_EQ(sw.aggressors_filtered_temporal, 1u);
  EXPECT_LT(sw.net(f.victim).total_peak, none.net(f.victim).total_peak);
}

TEST(Analyzer, LatchCheckUsesSensitivityWindow) {
  const SeqFixture f;
  const auto p = f.make_para();
  // Early aggressors: glitch long before the capture edge at ~1 ns.
  const auto early = f.run_sta(p, {0, 80 * PS}, {0, 80 * PS});

  const Result none = analyze(f.design, p, early, opts(AnalysisMode::kNoFiltering));
  const Result sw = analyze(f.design, p, early, opts(AnalysisMode::kSwitchingWindows));
  const Result nwm = analyze(f.design, p, early, opts(AnalysisMode::kNoiseWindows));

  // The glitch is big enough to violate amplitude-wise.
  ASSERT_GE(none.violations.size(), 1u);
  ASSERT_GE(sw.violations.size(), 1u);
  // ...but it cannot coincide with the sampling window.
  EXPECT_EQ(nwm.violations.size(), 0u);
  EXPECT_EQ(nwm.endpoints_checked, sw.endpoints_checked);

  // Late aggressors: glitch lands on the capture edge -> all modes flag it.
  const auto late = f.run_sta(p, {900 * PS, 980 * PS}, {900 * PS, 980 * PS});
  const Result nwm_late = analyze(f.design, p, late, opts(AnalysisMode::kNoiseWindows));
  ASSERT_GE(nwm_late.violations.size(), 1u);
  EXPECT_TRUE(nwm_late.violations[0].temporal);
  EXPECT_EQ(nwm_late.violations[0].net, f.victim);
  EXPECT_LT(nwm_late.violations[0].slack(), 0.0);
}

TEST(Analyzer, ModeMonotonicityOnBus) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 32;
  cfg.segments = 3;
  cfg.coupling_adj = 6 * FF;
  cfg.port_res = 1500.0;
  const gen::Generated g = gen::make_bus(library, cfg);
  const auto timing = sta::run(g.design, g.para, g.sta_options);

  const Result none =
      analyze(g.design, g.para, timing, opts(AnalysisMode::kNoFiltering, cfg.clock_period));
  const Result sw = analyze(g.design, g.para, timing,
                            opts(AnalysisMode::kSwitchingWindows, cfg.clock_period));
  const Result nwm = analyze(g.design, g.para, timing,
                             opts(AnalysisMode::kNoiseWindows, cfg.clock_period));

  // Peak pessimism strictly ordered per net; violations follow.
  for (std::size_t i = 0; i < g.design.net_count(); ++i) {
    EXPECT_GE(none.nets[i].total_peak + 1e-12, sw.nets[i].total_peak);
    EXPECT_GE(sw.nets[i].total_peak + 1e-12, nwm.nets[i].total_peak);
  }
  EXPECT_GE(none.violations.size(), sw.violations.size());
  EXPECT_GE(sw.violations.size(), nwm.violations.size());
  EXPECT_GE(none.noisy_nets, sw.noisy_nets);
}

TEST(Analyzer, PropagationAddsContribution) {
  // victim -> INV -> y. A big glitch on the victim propagates to y.
  lib::Library library = lib::default_library();
  net::Design d(library, "prop");
  const NetId v = d.add_net("v");
  const NetId a = d.add_net("a");
  const NetId y = d.add_net("y");
  d.add_input_port("vin", v, {4000.0, 30 * PS});
  d.add_input_port("ain", a, {300.0, 15 * PS});
  const InstId inv = d.add_instance("inv", "INV_X1");
  d.connect(inv, "A", v);
  d.connect(inv, "Y", y);
  d.add_output_port("yo", y);
  const InstId rxa = d.add_instance("rxa", "INV_X1");
  d.connect(rxa, "A", a);
  const NetId ay = d.add_net("ay");
  d.connect(rxa, "Y", ay);
  d.add_output_port("ao", ay);

  para::Parasitics p(d.net_count());
  p.net(v).add_cap(0, 2 * FF);
  p.net(a).add_cap(0, 2 * FF);
  p.net(y).add_cap(0, 2 * FF);
  p.net(ay).add_cap(0, 2 * FF);
  p.add_coupling(v, 0, a, 0, 60 * FF);

  sta::Options sopt;
  sopt.input_arrivals["ain"] = Interval{100 * PS, 150 * PS};
  sopt.input_arrivals["vin"] = Interval{0.0, 0.0};
  const auto timing = sta::run(d, p, sopt);

  const Result r = analyze(d, p, timing, opts(AnalysisMode::kNoiseWindows));
  const NetNoise& nv = r.net(v);
  EXPECT_GT(nv.total_peak, 0.5);  // huge coupling, weak holder

  const NetNoise& ny = r.net(y);
  ASSERT_EQ(ny.contributions.size(), 1u);
  EXPECT_TRUE(ny.contributions[0].is_propagated());
  EXPECT_GT(ny.propagated_peak, 0.0);
  // The propagated window is shifted later than the injected one.
  ASSERT_FALSE(ny.window.is_empty());
  EXPECT_GT(ny.window.hull().lo, nv.window.hull().lo);
}

TEST(Analyzer, CouplingThresholdDropsWeakAggressors) {
  const SeqFixture f(40 * FF, 0.08 * FF);  // agg2 coupling below threshold
  const auto p = f.make_para();
  const auto timing = f.run_sta(p, {0, 50 * PS}, {0, 50 * PS});
  Options o = opts(AnalysisMode::kNoiseWindows);
  o.min_coupling_cap = 0.5 * FF;
  const Result r = analyze(f.design, p, timing, o);
  EXPECT_EQ(r.net(f.victim).aggressor_count, 1u);
}

TEST(Analyzer, EndpointSlacksPopulated) {
  const SeqFixture f;
  const auto p = f.make_para();
  const auto timing = f.run_sta(p, {0, 50 * PS}, {0, 50 * PS});
  const Result r = analyze(f.design, p, timing, opts(AnalysisMode::kSwitchingWindows));
  EXPECT_EQ(r.endpoint_slacks.size(), r.endpoints_checked);
  EXPECT_GT(r.endpoints_checked, 0u);
}

TEST(Analyzer, RefinementConvergesAndRecordsHistory) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 16;
  cfg.coupling_adj = 6 * FF;
  const gen::Generated g = gen::make_bus(library, cfg);
  const auto timing = sta::run(g.design, g.para, g.sta_options);

  Options o = opts(AnalysisMode::kNoiseWindows, cfg.clock_period);
  o.refine_iterations = 4;
  const Result r = analyze(g.design, g.para, timing, o);
  EXPECT_GE(r.iterations, 1);
  EXPECT_LE(r.iterations, 5);
  EXPECT_EQ(r.iteration_violations.size(), static_cast<std::size_t>(r.iterations));
  // Inflated windows contain the originals: the first refinement pass can
  // only add violations.
  if (r.iteration_violations.size() >= 2) {
    EXPECT_GE(r.iteration_violations[1], r.iteration_violations[0]);
  }
  // Early exit before the cap means a fixpoint was reached.
  const auto n = r.iteration_violations.size();
  if (r.iterations < 5 && n >= 2) {
    EXPECT_EQ(r.iteration_violations[n - 1], r.iteration_violations[n - 2]);
  }
}

TEST(Analyzer, LatchTransparencyCatchesEarlyGlitches) {
  // Same pipeline geometry, DFF vs latch capture. The glitches land early
  // in the cycle: the flop's sampling window (next edge) misses them, the
  // latch's transparent phase does not.
  const lib::Library library = lib::default_library();
  gen::PipelineConfig cfg;
  cfg.paths = 24;
  cfg.coupling_cap = 28 * FF;

  auto violations_with = [&](bool latch) {
    gen::PipelineConfig c = cfg;
    c.latch_capture = latch;
    gen::Generated g = gen::make_pipeline(library, c);
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    Options o = opts(AnalysisMode::kNoiseWindows, g.sta_options.clock_period);
    return analyze(g.design, g.para, timing, o).violations.size();
  };
  const std::size_t dff = violations_with(false);
  const std::size_t latch = violations_with(true);
  EXPECT_EQ(dff, 0u);
  EXPECT_GT(latch, 0u);
}

TEST(Analyzer, ClockUncertaintyWidensSensitivity) {
  const SeqFixture f;
  const auto p = f.make_para();
  // Glitch at ~500 ps, capture edge at ~1 ns: misses with tight clocks.
  const auto timing = f.run_sta(p, {400 * PS, 480 * PS}, {400 * PS, 480 * PS});
  Options o = opts(AnalysisMode::kNoiseWindows);
  EXPECT_EQ(analyze(f.design, p, timing, o).violations.size(), 0u);
  // A sloppy clock tree (+-400 ps) pulls the sampling window onto it.
  o.clock_uncertainty = 400 * PS;
  EXPECT_GE(analyze(f.design, p, timing, o).violations.size(), 1u);
}

TEST(Analyzer, MismatchedStaThrows) {
  const SeqFixture f;
  const auto p = f.make_para();
  sta::Result bogus;
  EXPECT_THROW((void)analyze(f.design, p, bogus, {}), std::invalid_argument);
}

TEST(Analyzer, ModeNames) {
  EXPECT_STREQ(to_string(AnalysisMode::kNoFiltering), "no-filtering");
  EXPECT_STREQ(to_string(AnalysisMode::kSwitchingWindows), "switching-windows");
  EXPECT_STREQ(to_string(AnalysisMode::kNoiseWindows), "noise-windows");
}

TEST(Analyzer, OptionNamesRoundTrip) {
  for (const AnalysisMode m : {AnalysisMode::kNoFiltering, AnalysisMode::kSwitchingWindows,
                               AnalysisMode::kNoiseWindows}) {
    EXPECT_EQ(parse_mode(to_string(m)), m) << to_string(m);
  }
  for (const GlitchModel m : {GlitchModel::kChargeSharing, GlitchModel::kDevgan,
                              GlitchModel::kTwoPi, GlitchModel::kReducedMna,
                              GlitchModel::kMnaExact}) {
    EXPECT_EQ(parse_model(to_string(m)), m) << to_string(m);
  }
  for (const char* bad : {"", "?", "noise-window", "Noise-Windows", "two-pi "}) {
    EXPECT_FALSE(parse_mode(bad).has_value()) << bad;
    EXPECT_FALSE(parse_model(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace nw::noise
