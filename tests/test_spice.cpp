// Circuit model, PWL sources, MNA transient vs analytic RC solutions,
// waveform measurement, deck generation.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "spice/circuit.hpp"
#include "spice/deck.hpp"
#include "spice/transient.hpp"
#include "spice/waveform.hpp"
#include "util/units.hpp"

namespace nw::spice {
namespace {

TEST(Pwl, RampAndPulse) {
  const Pwl r = Pwl::ramp(1e-9, 1e-9, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(r.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(r.at(1.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(r.at(5e-9), 2.0);

  // Up in 1 ns, hold 2 ns, down in 1 ns.
  const Pwl p({{0.0, 0.0}, {1e-9, 1.0}, {3e-9, 1.0}, {4e-9, 0.0}});
  EXPECT_DOUBLE_EQ(p.at(0.5e-9), 0.5);
  EXPECT_DOUBLE_EQ(p.at(2e-9), 1.0);
  EXPECT_DOUBLE_EQ(p.at(10e-9), 0.0);

  EXPECT_DOUBLE_EQ(Pwl::dc(3.3).at(123.0), 3.3);
  EXPECT_THROW(Pwl::ramp(0, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(Pwl({{1e-9, 0.0}, {0.0, 1.0}}), std::invalid_argument);
}

TEST(Circuit, Validation) {
  Circuit c;
  const auto n = c.add_node();
  EXPECT_THROW(c.add_res(n, n, 1.0), std::invalid_argument);
  EXPECT_THROW(c.add_res(n, 99, 1.0), std::out_of_range);
  EXPECT_THROW(c.add_res(n, 0, -5.0), std::invalid_argument);
  EXPECT_THROW(c.add_cap(n, 0, 0.0), std::invalid_argument);
  c.add_res(n, 0, 1.0);
  c.add_cap(n, 0, 1e-15);
  EXPECT_EQ(c.resistors().size(), 1u);
  EXPECT_EQ(c.capacitors().size(), 1u);
  EXPECT_EQ(c.node_name(0), "0");
}

TEST(Transient, RcStepMatchesAnalytic) {
  // Step through R into C: v(t) = V (1 - e^{-t/RC}).
  Circuit c;
  const auto n1 = c.add_node("n1");
  const auto src = c.add_node("src");
  c.add_vsrc(src, 0, Pwl::ramp(0.0, 1e-12, 0.0, 1.0));  // ~step
  c.add_res(src, n1, 1000.0);
  c.add_cap(n1, 0, 1e-12);  // tau = 1 ns
  const TransientResult r = simulate(c, {5 * NS, 1 * PS});
  for (const double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-t / 1e-9);
    const auto k = static_cast<std::size_t>(t / 1e-12);
    EXPECT_NEAR(r.v(n1, k), expected, 5e-3) << "t=" << t;
  }
}

TEST(Transient, RcDividerDcLevel) {
  // Resistive divider: final value V * R2/(R1+R2).
  Circuit c;
  const auto mid = c.add_node();
  const auto src = c.add_node();
  c.add_vsrc(src, 0, Pwl::dc(2.0));
  c.add_res(src, mid, 1000.0);
  c.add_res(mid, 0, 3000.0);
  c.add_cap(mid, 0, 1e-15);
  const TransientResult r = simulate(c, {1 * NS, 1 * PS});
  EXPECT_NEAR(r.v(mid, r.steps() - 1), 1.5, 1e-6);
}

TEST(Transient, CouplingInjectsGlitch) {
  // Aggressor ramp couples into a held victim: the victim bumps and decays
  // back to baseline; the peak matches the analytic single-pole solution.
  Circuit c;
  const auto vic = c.add_node("vic");
  const auto agg = c.add_node("agg");
  const auto src = c.add_node("src");
  const double rh = 1000.0;
  const double cc = 10e-15;
  const double cg = 20e-15;
  const double tr = 50 * PS;
  c.add_res(vic, 0, rh);
  c.add_cap(vic, 0, cg);
  c.add_cap(vic, agg, cc);
  c.add_vsrc(src, 0, Pwl::ramp(100 * PS, tr, 0.0, 1.0));
  c.add_res(src, agg, 1.0);  // near-ideal aggressor drive
  const TransientResult r = simulate(c, {2 * NS, 0.1 * PS});
  const GlitchMeasure g = measure_glitch(r.waveform(vic), 0.0);
  const double tau_v = rh * (cc + cg);
  const double expected = (rh * cc / tr) * (1.0 - std::exp(-tr / tau_v));
  EXPECT_NEAR(g.peak, expected, 0.02 * expected);
  EXPECT_TRUE(g.positive);
  EXPECT_GT(g.width, 0.0);
  // After the glitch the victim returns to baseline.
  EXPECT_NEAR(r.v(vic, r.steps() - 1), 0.0, 1e-4);
}

TEST(Transient, EnergyDecaysWithoutSources) {
  // A charged cap discharging through R: strictly monotone decay
  // (passivity of the integrator on a passive network).
  Circuit c;
  const auto n1 = c.add_node();
  const auto src = c.add_node();
  // Charge n1 via a fast source then let the source go to 0.
  c.add_vsrc(src, 0, Pwl({{0.0, 1.0}, {0.1e-9, 1.0}, {0.11e-9, 0.0}}));
  c.add_res(src, n1, 100.0);
  c.add_cap(n1, 0, 1e-12);
  const TransientResult r = simulate(c, {4 * NS, 1 * PS});
  double prev = r.v(n1, 200);  // after the source dropped
  for (std::size_t k = 210; k < r.steps(); k += 10) {
    const double v = r.v(n1, k);
    EXPECT_LE(v, prev + 1e-9);
    prev = v;
  }
}

TEST(Transient, BadOptionsThrow) {
  Circuit c;
  (void)c.add_node();
  EXPECT_THROW((void)simulate(c, {0.0, 1e-12}), std::invalid_argument);
  EXPECT_THROW((void)simulate(c, {1e-9, 0.0}), std::invalid_argument);
}

TEST(Waveform, MeasureGlitchTriangle) {
  // Triangle 0 -> 1 -> 0 over 2 time units, dt = 0.01.
  std::vector<double> s;
  for (int i = 0; i <= 200; ++i) {
    const double t = i * 0.01;
    s.push_back(t <= 1.0 ? t : 2.0 - t);
  }
  const Waveform w(0.0, 0.01, std::move(s));
  const GlitchMeasure g = measure_glitch(w, 0.0);
  EXPECT_NEAR(g.peak, 1.0, 1e-9);
  EXPECT_NEAR(g.t_peak, 1.0, 0.02);
  EXPECT_NEAR(g.width, 1.0, 0.03);  // above 0.5 from t=0.5 to t=1.5
  EXPECT_TRUE(g.positive);
}

TEST(Waveform, NegativeGlitch) {
  std::vector<double> s{0.0, -0.2, -0.8, -0.4, 0.0};
  const Waveform w(0.0, 1.0, std::move(s));
  const GlitchMeasure g = measure_glitch(w, 0.0);
  EXPECT_NEAR(g.peak, 0.8, 1e-12);
  EXPECT_FALSE(g.positive);
}

TEST(Waveform, InterpAndDiff) {
  const Waveform a(0.0, 1.0, {0.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(a.at(0.5), 0.5);
  EXPECT_DOUBLE_EQ(a.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(a.at(99.0), 2.0);
  const Waveform b(0.0, 1.0, {0.0, 1.5, 2.0});
  // Sampled at n points, the measured max can miss the exact peak by one
  // sample step.
  EXPECT_NEAR(max_abs_difference(a, b), 0.5, 0.01);
}

TEST(Deck, ContainsAllElements) {
  Circuit c;
  const auto n1 = c.add_node("victim");
  const auto src = c.add_node("drv");
  c.add_vsrc(src, 0, Pwl::ramp(0.0, 1e-11, 0.0, 1.2));
  c.add_res(src, n1, 500.0);
  c.add_cap(n1, 0, 5e-15);
  DeckOptions opt;
  opt.title = "unit test deck";
  opt.tran = {1e-9, 1e-12};
  opt.probes = {n1};
  const std::string deck = write_deck_string(c, opt);
  EXPECT_NE(deck.find("* unit test deck"), std::string::npos);
  EXPECT_NE(deck.find("R0 drv victim 500"), std::string::npos);
  EXPECT_NE(deck.find("C0 victim 0 5"), std::string::npos);
  EXPECT_NE(deck.find("PWL(0 0 "), std::string::npos);
  EXPECT_NE(deck.find(".tran "), std::string::npos);
  EXPECT_NE(deck.find(".print tran v(victim)"), std::string::npos);
  EXPECT_NE(deck.find(".end"), std::string::npos);
}

}  // namespace
}  // namespace nw::spice
