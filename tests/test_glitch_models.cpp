// Analytic glitch models: limits, monotonicity, and conservativeness
// against the MNA golden reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "gen/bus.hpp"
#include "library/library.hpp"
#include "noise/analyzer.hpp"
#include "noise/glitch_models.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

CouplingScenario base_scenario() {
  CouplingScenario s;
  s.r_hold = 1000.0;
  s.c_ground = 20 * FF;
  s.c_couple = 10 * FF;
  s.slew = 50 * PS;
  s.vdd = 1.2;
  return s;
}

TEST(ChargeSharing, CapacitiveDivider) {
  const CouplingScenario s = base_scenario();
  const GlitchEstimate g = estimate_charge_sharing(s);
  EXPECT_NEAR(g.peak, 1.2 * 10.0 / 30.0, 1e-12);
  EXPECT_GT(g.width, 0.0);
}

TEST(Devgan, CapsAtVdd) {
  CouplingScenario s = base_scenario();
  s.slew = 0.1 * PS;  // brutally fast aggressor
  const GlitchEstimate g = estimate_devgan(s);
  EXPECT_DOUBLE_EQ(g.peak, s.vdd);
}

TEST(Devgan, LinearInCouplingForSlowEdges) {
  CouplingScenario s = base_scenario();
  s.slew = 1 * NS;
  const double p1 = estimate_devgan(s).peak;
  s.c_couple *= 2.0;
  const double p2 = estimate_devgan(s).peak;
  EXPECT_NEAR(p2, 2.0 * p1, 1e-12);
}

TEST(TwoPi, BelowDevganAndChargeSharingLimits) {
  // The dominant-pole estimate is bounded by both cruder upper bounds'
  // regimes: never above Devgan, never above vdd.
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    CouplingScenario s;
    s.r_hold = rng.uniform(200.0, 5000.0);
    s.c_ground = rng.uniform(1 * FF, 100 * FF);
    s.c_couple = rng.uniform(0.5 * FF, 50 * FF);
    s.slew = rng.uniform(5 * PS, 500 * PS);
    s.vdd = 1.2;
    const double two_pi = estimate_two_pi(s).peak;
    const double devgan = estimate_devgan(s).peak;
    EXPECT_LE(two_pi, devgan + 1e-12);
    EXPECT_LE(two_pi, s.vdd + 1e-12);
    EXPECT_GE(two_pi, 0.0);
  }
}

TEST(TwoPi, FastAggressorApproachesChargeSharing) {
  CouplingScenario s = base_scenario();
  s.slew = 0.01 * PS;
  const double two_pi = estimate_two_pi(s).peak;
  const double cs = estimate_charge_sharing(s).peak;
  EXPECT_NEAR(two_pi, cs, 0.02 * cs);
}

TEST(TwoPi, MonotoneInCouplingCap) {
  CouplingScenario s = base_scenario();
  double prev = 0.0;
  for (double cc = 1 * FF; cc < 40 * FF; cc += 2 * FF) {
    s.c_couple = cc;
    const double p = estimate_two_pi(s).peak;
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(TwoPi, MonotoneDecreasingInSlew) {
  CouplingScenario s = base_scenario();
  double prev = 1e9;
  for (double tr = 10 * PS; tr <= 400 * PS; tr += 30 * PS) {
    s.slew = tr;
    const double p = estimate_two_pi(s).peak;
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(TwoPi, WidthGrowsWithVictimTau) {
  CouplingScenario s = base_scenario();
  const double w1 = estimate_two_pi(s).width;
  s.r_hold *= 4.0;
  const double w2 = estimate_two_pi(s).width;
  EXPECT_GT(w2, w1);
}

TEST(Models, InvalidSlewThrows) {
  CouplingScenario s = base_scenario();
  s.slew = 0.0;
  EXPECT_THROW((void)estimate_devgan(s), std::invalid_argument);
  EXPECT_THROW((void)estimate_two_pi(s), std::invalid_argument);
}

/// Conservativeness sweep: on generated bus victims, Devgan must upper-
/// bound the MNA golden; two-pi must stay within a sane conservative band.
class Conservativeness : public ::testing::TestWithParam<int> {};

TEST_P(Conservativeness, DevganBoundsGolden) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 5;
  cfg.segments = 3;
  cfg.seed = static_cast<std::uint64_t>(GetParam()) + 1;
  Rng rng(cfg.seed * 101);
  cfg.coupling_adj = rng.uniform(2 * FF, 8 * FF);
  cfg.port_res = rng.uniform(300.0, 1500.0);
  const gen::Generated g = gen::make_bus(library, cfg);

  const NetId victim = *g.design.find_net("w2");
  const NetId aggressor = *g.design.find_net("w3");
  const double slew = rng.uniform(15 * PS, 80 * PS);
  const double vdd = library.vdd();

  const GlitchEstimate golden = estimate_mna(g.design, g.para, victim, aggressor, slew,
                                             vdd, {1.5 * NS, 0.5 * PS});
  const CouplingScenario sc =
      scenario_for(g.design, g.para, victim, aggressor, slew, vdd);
  ASSERT_GT(golden.peak, 0.0);
  // Devgan on the bounding abstraction is the provable upper bound.
  const CouplingScenario bound =
      bound_scenario_for(g.design, g.para, victim, aggressor, slew, vdd);
  EXPECT_GE(estimate_devgan(bound).peak, golden.peak * 0.999);
  // two-pi on the degraded scenario is conservative but within 3x.
  const double two_pi = estimate_two_pi(sc).peak;
  EXPECT_GE(two_pi, 0.8 * golden.peak);
  EXPECT_LE(two_pi, 3.0 * golden.peak);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conservativeness, ::testing::Range(0, 8));

TEST(ReducedMna, TracksGoldenWithinTightBand) {
  // The 5-node reduced model must land much closer to the full-cluster
  // golden than the analytic two-pi does.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 5;
  cfg.segments = 4;
  cfg.coupling_adj = 5 * FF;
  const gen::Generated g = gen::make_bus(library, cfg);
  const NetId victim = *g.design.find_net("w2");
  const NetId aggressor = *g.design.find_net("w3");
  const double slew = 30 * PS;
  const double vdd = library.vdd();

  const GlitchEstimate golden = estimate_mna(g.design, g.para, victim, aggressor, slew,
                                             vdd, {2 * NS, 0.5 * PS});
  const GlitchEstimate reduced =
      estimate_reduced(g.design, g.para, victim, aggressor, slew, vdd);
  ASSERT_GT(golden.peak, 0.0);
  EXPECT_NEAR(reduced.peak, golden.peak, 0.25 * golden.peak);
  EXPECT_NEAR(reduced.width, golden.width, 0.5 * golden.width);

  const GlitchEstimate two_pi =
      estimate_two_pi(scenario_for(g.design, g.para, victim, aggressor, slew, vdd));
  EXPECT_LT(std::abs(reduced.peak - golden.peak), std::abs(two_pi.peak - golden.peak));
}

TEST(ReducedMna, NoCouplingGivesNoGlitch) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 5;
  const gen::Generated g = gen::make_bus(library, cfg);
  // w0 and w3 do not couple (only 1st/2nd neighbours do).
  const GlitchEstimate e = estimate_reduced(
      g.design, g.para, *g.design.find_net("w0"), *g.design.find_net("w3"), 30 * PS, 1.2);
  EXPECT_DOUBLE_EQ(e.peak, 0.0);
}

TEST(ReducedMna, StepBoundNamesThePair) {
  // A millisecond window on mna-exact's picosecond grid is billions of
  // steps: refused before allocating, with the nets named.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 4;
  const gen::Generated g = gen::make_bus(library, cfg);
  const NetId victim = *g.design.find_net("w1");
  const NetId aggressor = *g.design.find_net("w2");
  try {
    (void)estimate_mna(g.design, g.para, victim, aggressor, 30 * PS, 1.2, {1e-3, 0.5 * PS});
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mna-exact: victim net 'w1', aggressor net 'w2': simulate: "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("exceed the limit of " + std::to_string(spice::kMaxSteps)),
              std::string::npos)
        << what;
  }
}

TEST(ReducedMna, MillisecondSlewGivesAFiniteGlitch) {
  // The closed form takes no steps, so a millisecond aggressor slew (which
  // the stepped model refused) is a slow ramp with a small, wide glitch.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 4;
  const gen::Generated g = gen::make_bus(library, cfg);
  const GlitchEstimate e = estimate_reduced(g.design, g.para, *g.design.find_net("w1"),
                                            *g.design.find_net("w2"), 1e-3, 1.2);
  ASSERT_TRUE(std::isfinite(e.peak) && std::isfinite(e.width) &&
              std::isfinite(e.peak_delay));
  EXPECT_GT(e.peak, 0.0);
  EXPECT_LT(e.peak, 1e-3);
  EXPECT_GT(e.width, 0.5e-3);
  EXPECT_LE(e.width, 1.1e-3);
}

TEST(ReducedMna, BadInputAndNonFiniteGlitchNameThePair) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 4;
  const gen::Generated g = gen::make_bus(library, cfg);
  const NetId victim = *g.design.find_net("w1");
  const NetId aggressor = *g.design.find_net("w2");
  const std::string pair = "reduced-mna: victim net 'w1', aggressor net 'w2': ";
  for (const double slew : {0.0, -30 * PS, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(slew);
    try {
      (void)estimate_reduced(g.design, g.para, victim, aggressor, slew, 1.2);
      FAIL() << "no throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(pair + "aggressor slew must be positive and finite", 0), 0u)
          << what;
    }
  }
  // An infinite swing gives a non-finite solution.
  try {
    (void)estimate_reduced(g.design, g.para, victim, aggressor, 30 * PS, HUGE_VAL);
    FAIL() << "no throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(pair + "reduced circuit: non-finite glitch", 0), 0u) << what;
  }
}

TEST(MnaExact, WindowCoversSlowAggressors) {
  // The configured 2 ns window used to cut off any glitch slower than about
  // 2 ns (width 1.97 ns at a 3 or 6 ns slew). Each pair's run now lasts
  // until the victim has settled, so the glitch plateau, about one slew
  // wide at half peak, is measured whole.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 4;
  const gen::Generated g = gen::make_bus(library, cfg);
  const NetId victim = *g.design.find_net("w1");
  const NetId aggressor = *g.design.find_net("w2");
  for (const double slew : {3 * NS, 6 * NS}) {
    const GlitchEstimate e = estimate_mna(g.design, g.para, victim, aggressor, slew,
                                          library.vdd(), kMnaTran);
    ASSERT_GT(e.peak, 0.0);
    EXPECT_NEAR(e.width, slew, 0.05 * slew);
  }
}

TEST(GlitchAccuracy, ModelsStayWithinDeclaredBoundsOfGolden) {
  // R-F1 as tier-1: the 60 seeded clusters of bench/bench_accuracy.cpp
  // (same generator draws). Devgan on the bounding abstraction never falls
  // below the MNA golden, and the reduced-MNA peak stays within the +-7 %
  // DESIGN.md §4.1 declares. Two-pi's known under-estimates are an open
  // ROADMAP item and are not asserted here.
  const lib::Library library = lib::default_library();
  const double vdd = library.vdd();
  Rng rng(2026);
  int compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    gen::BusConfig cfg;
    cfg.bits = 5;
    cfg.segments = 1 + static_cast<std::size_t>(rng.below(4));
    cfg.coupling_adj = rng.uniform(2 * FF, 9 * FF);
    cfg.coupling_2nd = rng.uniform(0.2 * FF, 2 * FF);
    cfg.port_res = rng.uniform(300.0, 3000.0);
    cfg.res_per_seg = rng.uniform(10.0, 60.0);
    cfg.cap_per_seg = rng.uniform(1 * FF, 4 * FF);
    cfg.seed = rng.next();
    const gen::Generated g = gen::make_bus(library, cfg);
    const NetId victim = *g.design.find_net("w2");
    const NetId aggressor = *g.design.find_net(rng.chance(0.5) ? "w1" : "w3");
    const double slew = rng.uniform(10 * PS, 100 * PS);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const GlitchEstimate golden = estimate_mna(g.design, g.para, victim, aggressor, slew,
                                               vdd, {2 * NS, 0.5 * PS});
    if (golden.peak < 1e-3) continue;
    ++compared;
    const GlitchEstimate devgan = estimate_devgan(
        bound_scenario_for(g.design, g.para, victim, aggressor, slew, vdd));
    EXPECT_GE(devgan.peak, 0.999 * golden.peak);
    const GlitchEstimate reduced =
        estimate_reduced(g.design, g.para, victim, aggressor, slew, vdd);
    EXPECT_NEAR(reduced.peak, golden.peak, 0.07 * golden.peak);
  }
  EXPECT_EQ(compared, 60);
}

/// A bus whose input ports drive through `port_res` (0 = ideal source).
gen::Generated ideal_driver_bus(const lib::Library& library, double port_res) {
  gen::BusConfig cfg;
  cfg.bits = 8;
  cfg.segments = 4;
  cfg.coupling_adj = 5 * FF;
  cfg.port_res = port_res;
  return gen::make_bus(library, cfg);
}

TEST(IdealDriver, ZeroOhmDriverIsAnIdealSourceInBothMnaModels) {
  // A 0-ohm port used to abort both MNA models (add_res: non-positive
  // resistance). It is an ideal source now, and the limit of a tiny
  // resistance.
  const lib::Library library = lib::default_library();
  const gen::Generated ideal = ideal_driver_bus(library, 0.0);
  const gen::Generated tiny = ideal_driver_bus(library, 1e-6);
  const double vdd = library.vdd();
  const spice::TranOptions tran{1 * NS, 0.5 * PS};
  for (const auto& [v, a] : {std::pair{"w3", "w4"}, std::pair{"w4", "w2"}}) {
    SCOPED_TRACE(std::string(v) + " <- " + a);
    const NetId victim = *ideal.design.find_net(v);
    const NetId aggressor = *ideal.design.find_net(a);
    const GlitchEstimate r0 =
        estimate_reduced(ideal.design, ideal.para, victim, aggressor, 30 * PS, vdd);
    const GlitchEstimate r1 =
        estimate_reduced(tiny.design, tiny.para, victim, aggressor, 30 * PS, vdd);
    const GlitchEstimate m0 =
        estimate_mna(ideal.design, ideal.para, victim, aggressor, 30 * PS, vdd, tran);
    const GlitchEstimate m1 =
        estimate_mna(tiny.design, tiny.para, victim, aggressor, 30 * PS, vdd, tran);
    for (const auto& [e0, e1] : {std::pair{r0, r1}, std::pair{m0, m1}}) {
      ASSERT_TRUE(std::isfinite(e0.peak) && std::isfinite(e0.width));
      EXPECT_GT(e0.peak, 0.0);
      EXPECT_LT(e0.peak, vdd);
      EXPECT_NEAR(e0.peak, e1.peak, 1e-6 * vdd);
      EXPECT_NEAR(e0.width, e1.width, 1e-3 * e1.width);
    }
  }

  // The analyzer runs both models on the ideal-driver design.
  const sta::Result timing = sta::run(ideal.design, ideal.para, ideal.sta_options);
  for (const auto model : {GlitchModel::kReducedMna, GlitchModel::kMnaExact}) {
    Options o;
    o.model = model;
    o.clock_period = ideal.sta_options.clock_period;
    const Result res = analyze(ideal.design, ideal.para, timing, o);
    double worst = 0.0;
    for (const auto& nn : res.nets) {
      ASSERT_TRUE(std::isfinite(nn.total_peak));
      worst = std::max(worst, nn.injected_peak);
    }
    EXPECT_GT(worst, 0.0) << to_string(model);
  }
}

TEST(SynthesizeGlitch, ShapeMatchesEstimate) {
  GlitchEstimate e;
  e.peak = 0.4;
  e.width = 80 * PS;
  e.peak_delay = 30 * PS;
  const spice::Waveform w = synthesize_glitch(e, 100 * PS, 0.0, 0.5 * PS, 1 * NS);
  const spice::GlitchMeasure m = spice::measure_glitch(w, 0.0);
  EXPECT_NEAR(m.peak, e.peak, 0.01 * e.peak);
  EXPECT_NEAR(m.t_peak, 130 * PS, 2 * PS);
  EXPECT_NEAR(m.width, e.width, 0.1 * e.width);
  // Baseline before the glitch starts.
  EXPECT_DOUBLE_EQ(w.at(50 * PS), 0.0);
  // Monotone rise between start and peak.
  EXPECT_LT(w.at(110 * PS), w.at(125 * PS));
}

TEST(SynthesizeGlitch, ZeroPeakIsFlat) {
  const spice::Waveform w = synthesize_glitch({}, 0.0, 0.3, 1 * PS, 0.1 * NS);
  const auto [lo, hi] = std::ranges::minmax(w.samples());
  EXPECT_DOUBLE_EQ(hi, 0.3);
  EXPECT_DOUBLE_EQ(lo, 0.3);
}

TEST(SynthesizeGlitch, BadGridThrows) {
  GlitchEstimate e;
  e.peak = 0.1;
  EXPECT_THROW((void)synthesize_glitch(e, 0.0, 0.0, 0.0, 1e-9), std::invalid_argument);
  EXPECT_THROW((void)synthesize_glitch(e, 0.0, 0.0, 1e-12, 0.0), std::invalid_argument);
}

TEST(GlitchModel, Names) {
  EXPECT_STREQ(to_string(GlitchModel::kChargeSharing), "charge-sharing");
  EXPECT_STREQ(to_string(GlitchModel::kDevgan), "devgan");
  EXPECT_STREQ(to_string(GlitchModel::kTwoPi), "two-pi");
  EXPECT_STREQ(to_string(GlitchModel::kReducedMna), "reduced-mna");
  EXPECT_STREQ(to_string(GlitchModel::kMnaExact), "mna-exact");
}

TEST(ScenarioFor, AggregatesCouplingAndGround) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 5;
  cfg.segments = 2;
  const gen::Generated g = gen::make_bus(library, cfg);
  const NetId victim = *g.design.find_net("w2");
  const NetId agg = *g.design.find_net("w1");
  const CouplingScenario s =
      scenario_for(g.design, g.para, victim, agg, 30 * PS, 1.2);
  // Coupling to the adjacent line: 2 segments x coupling_adj.
  EXPECT_NEAR(s.c_couple, 2 * cfg.coupling_adj, 1e-20);
  // Ground includes wire cap + other couplings + receiver pin cap.
  EXPECT_GT(s.c_ground, 2 * cfg.cap_per_seg);
  // Slew is degraded, never faster than the driver edge.
  EXPECT_GT(s.slew, 30 * PS);
}

}  // namespace
}  // namespace nw::noise
