// The flat, in-place transient engine against the reference loop in
// tests/spice/reference.hpp: every sample must match bit for bit (memcmp),
// on seeded random RC circuits and on the MNA glitch models' bus pairs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/bus.hpp"
#include "library/library.hpp"
#include "noise/glitch_models.hpp"
#include "spice/circuit.hpp"
#include "spice/cluster.hpp"
#include "spice/reference.hpp"
#include "spice/transient.hpp"
#include "spice/waveform.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nw {
namespace {

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

spice::Pwl random_wave(Rng& rng) {
  const double v = rng.uniform(-1.5, 1.5);
  switch (rng.below(3)) {
    case 0:
      return spice::Pwl::ramp(rng.uniform(0.0, 40 * PS), rng.uniform(5 * PS, 60 * PS), 0.0,
                              v);
    case 1:
      return spice::Pwl::pulse(rng.uniform(0.0, 40 * PS), rng.uniform(5 * PS, 30 * PS),
                               rng.uniform(0.0, 50 * PS), 0.0, v);
    default: return spice::Pwl::dc(v);
  }
}

/// A seeded random RC network: a resistor tree hanging off two driven
/// source nodes, grounded and coupling caps, and some floating pure-C
/// nodes (G singular there, so the DC solve needs its leak).
spice::Circuit random_circuit(Rng& rng) {
  spice::Circuit ckt;
  const std::size_t n = 3 + rng.below(9);
  std::vector<std::size_t> resistive;
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t src = ckt.add_node();
    ckt.add_vsrc(src, 0, random_wave(rng));
    resistive.push_back(src);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t node = ckt.add_node();
    all.push_back(node);
    if (rng.chance(0.25)) {
      ckt.add_cap(node, 0, rng.uniform(0.5 * FF, 5 * FF));  // floating pure-C
      continue;
    }
    const std::size_t to = resistive[rng.below(resistive.size())];
    ckt.add_res(node, to, rng.uniform(50.0, 5e3));
    if (rng.chance(0.3)) ckt.add_res(node, 0, rng.uniform(1e3, 1e5));
    if (rng.chance(0.8)) ckt.add_cap(node, 0, rng.uniform(0.5 * FF, 20 * FF));
    resistive.push_back(node);
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t a = all[rng.below(all.size())];
    const std::size_t b = all[rng.below(all.size())];
    if (a != b) ckt.add_cap(a, b, rng.uniform(0.5 * FF, 10 * FF));
  }
  return ckt;
}

class TransientOracle : public ::testing::TestWithParam<int> {};

TEST_P(TransientOracle, RandomCircuitsMatchReferenceBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const spice::Circuit ckt = random_circuit(rng);
  const spice::TranOptions opt{rng.uniform(100 * PS, 300 * PS),
                               rng.uniform(0.2 * PS, 2 * PS)};
  const spice::TransientResult got = spice::simulate(ckt, opt);
  const spice::TransientResult want = ref::simulate(ckt, opt);
  ASSERT_EQ(got.steps(), want.steps());
  for (std::size_t node = 0; node < ckt.node_count(); ++node) {
    const spice::Waveform w = want.waveform(node);
    EXPECT_TRUE(same_bits(got.waveform(node).samples(), w.samples())) << "node " << node;
    EXPECT_TRUE(same_bits(spice::simulate_node(ckt, opt, node).samples(), w.samples()))
        << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransientOracle, ::testing::Range(0, 24));

TEST(TransientOracle, StepBoundFailsBeforeAllocating) {
  spice::Circuit ckt;
  const std::size_t n = ckt.add_node();
  ckt.add_res(n, 0, 1e3);
  ckt.add_cap(n, 0, 1 * FF);
  try {
    (void)spice::simulate_node(ckt, {1e-3, 5e-14}, n);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2e+10 timesteps"), std::string::npos) << what;
    EXPECT_NE(what.find("t_stop 0.001 s"), std::string::npos) << what;
    EXPECT_NE(what.find("dt 5e-14 s"), std::string::npos) << what;
  }
  const double past_bound = 1.5 * static_cast<double>(spice::kMaxSteps) * 1e-12;
  EXPECT_THROW((void)spice::simulate(ckt, {past_bound, 1e-12}), std::invalid_argument);
  EXPECT_THROW((void)spice::simulate(ckt, {std::nan(""), 1e-12}), std::invalid_argument);
  EXPECT_THROW((void)spice::simulate(ckt, {1e-9, std::nan("")}), std::invalid_argument);
  EXPECT_THROW((void)spice::simulate_node(ckt, {1e-9, 1e-12}, 2), std::out_of_range);
}

/// Every coupled (victim, aggressor) pair of a seeded bus, both directions.
std::vector<std::pair<NetId, NetId>> coupled_pairs(const gen::Generated& g) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::vector<std::pair<NetId, NetId>> pairs;
  for (const auto& cc : g.para.couplings()) {
    for (const auto& [v, a] :
         {std::pair{cc.net_a, cc.net_b}, std::pair{cc.net_b, cc.net_a}}) {
      if (seen.insert({v.index(), a.index()}).second) pairs.emplace_back(v, a);
    }
  }
  return pairs;
}

gen::Generated oracle_bus(const lib::Library& library, std::uint64_t seed) {
  gen::BusConfig cfg;
  cfg.bits = 6;
  cfg.segments = 3;
  cfg.seed = seed;
  cfg.coupling_jitter = 0.3;
  cfg.drive_jitter = 0.3;
  return gen::make_bus(library, cfg);
}

class GlitchModelOracle : public ::testing::TestWithParam<int> {};

TEST_P(GlitchModelOracle, ReducedAndExactMatchReferenceBitForBit) {
  const lib::Library library = lib::default_library();
  const auto seed = static_cast<std::uint64_t>(GetParam()) + 1;
  const gen::Generated g = oracle_bus(library, seed);
  Rng rng(seed * 31);
  const double vdd = library.vdd();
  const spice::TranOptions tran{1 * NS, 0.5 * PS};
  const auto pairs = coupled_pairs(g);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [victim, aggressor] : pairs) {
    SCOPED_TRACE(g.design.net(victim).name + " <- " + g.design.net(aggressor).name);
    const double slew = rng.uniform(10 * PS, 80 * PS);

    const auto rc = noise::reduced_circuit(g.design, g.para, victim, aggressor, slew, vdd);
    ASSERT_TRUE(rc.has_value());
    const spice::GlitchMeasure want_r = spice::measure_glitch(
        ref::simulate(rc->circuit, rc->tran).waveform(rc->probe), 0.0);
    const noise::GlitchEstimate got_r =
        noise::estimate_reduced(g.design, g.para, victim, aggressor, slew, vdd);
    EXPECT_TRUE(same_bits(got_r.peak, want_r.peak));
    EXPECT_TRUE(same_bits(got_r.width, want_r.width));
    EXPECT_TRUE(same_bits(got_r.peak_delay, want_r.t_peak));

    spice::ClusterSpec spec;
    spec.victim = victim;
    spec.vdd = vdd;
    spec.aggressors.push_back({aggressor, 0.0, slew, true});
    const spice::Cluster cl = spice::build_cluster(g.design, g.para, spec);
    const spice::GlitchMeasure want_m = spice::measure_glitch(
        ref::simulate(cl.circuit, tran).waveform(cl.victim_probe), cl.baseline);
    const noise::GlitchEstimate got_m =
        noise::estimate_mna(g.design, g.para, victim, aggressor, slew, vdd, tran);
    EXPECT_TRUE(same_bits(got_m.peak, want_m.peak));
    EXPECT_TRUE(same_bits(got_m.width, want_m.width));
    EXPECT_TRUE(same_bits(got_m.peak_delay, want_m.t_peak));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlitchModelOracle, ::testing::Range(0, 3));

}  // namespace
}  // namespace nw
