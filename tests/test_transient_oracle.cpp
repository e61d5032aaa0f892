// The flat, in-place transient engine against the reference loop in
// tests/spice/reference.hpp: every sample must match bit for bit (memcmp),
// on seeded random RC circuits, on the MNA glitch models' bus pairs, and on
// every lane of a batched run (spice::simulate_batch), whatever the mix of
// circuit structures, step counts and batch sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "library/library.hpp"
#include "noise/analyzer.hpp"
#include "noise/glitch_models.hpp"
#include "spice/circuit.hpp"
#include "spice/cluster.hpp"
#include "spice/reference.hpp"
#include "spice/transient.hpp"
#include "spice/waveform.hpp"
#include "sta/sta.hpp"
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

/// A circuit, its run settings and the node a batched run records.
struct LaneRun {
  spice::Circuit ckt;
  spice::TranOptions tran;
  std::size_t probe = 0;
};

/// A run of one of reduced_circuit's 16 topologies with seeded values. The
/// pattern's bits choose a resistive aggressor driver (else a 0-ohm driver:
/// the ramp drives a1), an aggressor far node (else a2 == a1), a victim far
/// node (else v2 == v1) and a resistive holder (else an ideal 0 V source).
LaneRun pattern_run(Rng& rng, unsigned pattern) {
  const bool resistive_driver = (pattern & 1u) != 0;
  const bool aggressor_far = (pattern & 2u) != 0;
  const bool victim_far = (pattern & 4u) != 0;
  const bool resistive_holder = (pattern & 8u) != 0;
  LaneRun run;
  spice::Circuit& ckt = run.ckt;
  const std::size_t src = resistive_driver ? ckt.add_node("src") : 0;
  const std::size_t a1 = ckt.add_node("a1");
  const std::size_t a2 = aggressor_far ? ckt.add_node("a2") : a1;
  const std::size_t v1 = ckt.add_node("v1");
  const std::size_t v2 = victim_far ? ckt.add_node("v2") : v1;
  const double slew = rng.uniform(10 * PS, 80 * PS);
  const spice::Pwl ramp = spice::Pwl::ramp(0.0, slew, 0.0, 1.2);
  if (resistive_driver) {
    ckt.add_vsrc(src, 0, ramp);
    ckt.add_res(src, a1, rng.uniform(300.0, 3000.0));
  } else {
    ckt.add_vsrc(a1, 0, ramp);
  }
  ckt.add_cap(a1, 0, rng.uniform(2 * FF, 8 * FF));
  if (aggressor_far) {
    ckt.add_res(a1, a2, rng.uniform(20.0, 200.0));
    ckt.add_cap(a2, 0, rng.uniform(2 * FF, 8 * FF));
  }
  if (resistive_holder) {
    ckt.add_res(v1, 0, rng.uniform(500.0, 5000.0));
  } else {
    ckt.add_vsrc(v1, 0, spice::Pwl::dc(0.0));
  }
  ckt.add_cap(v1, 0, rng.uniform(2 * FF, 8 * FF));
  if (victim_far) {
    ckt.add_res(v1, v2, rng.uniform(20.0, 200.0));
    ckt.add_cap(v2, 0, rng.uniform(2 * FF, 8 * FF));
  }
  const double cc = rng.uniform(2 * FF, 10 * FF);
  ckt.add_cap(a1, v1, 0.5 * cc);
  ckt.add_cap(a2, v2, 0.5 * cc);  // a1-v1 again when neither far node exists
  // Different windows and steps give every lane its own step count.
  run.tran = {rng.uniform(150 * PS, 400 * PS), rng.uniform(0.3 * PS, 1 * PS)};
  run.probe = v2;
  return run;
}

/// Runs `runs` as one batch and checks every system is reported once, with
/// samples equal to the reference engine's bit for bit.
void expect_batch_matches_reference(const std::vector<LaneRun>& runs) {
  std::vector<spice::TranSystem> systems;
  for (const LaneRun& r : runs) systems.emplace_back(r.ckt, r.tran, r.probe);
  std::vector<int> reported(runs.size(), 0);
  spice::simulate_batch(systems, [&](std::size_t i, std::span<const double> samples) {
    ASSERT_LT(i, runs.size());
    ++reported[i];
    const spice::Waveform want = ref::simulate(runs[i].ckt, runs[i].tran).waveform(runs[i].probe);
    EXPECT_TRUE(same_bits(samples, want.samples())) << "system " << i;
  });
  for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(reported[i], 1) << "system " << i;
}

class LaneOracle : public ::testing::TestWithParam<int> {};

TEST_P(LaneOracle, MixedStructureBatchesMatchReferenceBitForBit) {
  // All 16 reduced-circuit topologies, shuffled, plus the reduced circuits
  // of real bus pairs with resistive and with 0-ohm drivers: simulate_batch
  // splits them into structure groups and steps each group in lanes.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  std::vector<LaneRun> runs;
  for (unsigned k = 0; k < 48; ++k) runs.push_back(pattern_run(rng, k % 16));
  for (std::size_t i = runs.size(); i > 1; --i) std::swap(runs[i - 1], runs[rng.below(i)]);

  const lib::Library library = lib::default_library();
  for (const double port_res : {1500.0, 0.0}) {
    gen::BusConfig cfg;
    cfg.bits = 5;
    cfg.segments = 1 + static_cast<std::size_t>(GetParam() % 3);
    cfg.port_res = port_res;
    cfg.seed = static_cast<std::uint64_t>(GetParam()) + 3;
    const gen::Generated g = gen::make_bus(library, cfg);
    for (const auto& [victim, aggressor] : coupled_pairs(g)) {
      auto rc = noise::reduced_circuit(g.design, g.para, victim, aggressor,
                                       rng.uniform(10 * PS, 80 * PS), library.vdd());
      ASSERT_TRUE(rc.has_value());
      runs.push_back({std::move(rc->circuit), rc->tran, rc->probe});
    }
  }
  expect_batch_matches_reference(runs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneOracle, ::testing::Range(0, 4));

/// `n` runs of one topology whose values (and so step counts) differ but
/// whose factors share one structure: one lane group.
std::vector<LaneRun> one_group(Rng& rng, std::size_t n) {
  std::vector<LaneRun> runs;
  for (std::size_t i = 0; i < n; ++i) runs.push_back(pattern_run(rng, 15));
  return runs;
}

TEST(LaneOracle, BatchSizesAroundTheLaneCountMatchReference) {
  constexpr std::size_t W = spice::kLanes;
  Rng rng(4242);
  for (const std::size_t n : {std::size_t{1}, W - 1, W, W + 1, 2 * W + 1}) {
    if (n == 0) continue;
    SCOPED_TRACE("batch of " + std::to_string(n));
    const std::vector<LaneRun> runs = one_group(rng, n);
    const spice::TranSystem first(runs[0].ckt, runs[0].tran, runs[0].probe);
    std::set<std::size_t> steps;
    for (const LaneRun& r : runs) {
      const spice::TranSystem s(r.ckt, r.tran, r.probe);
      ASSERT_TRUE(s.same_structure(first));
      steps.insert(s.steps());
    }
    EXPECT_EQ(steps.size(), n);  // every lane finishes at its own step
    expect_batch_matches_reference(runs);
  }
}

TEST(LaneOracle, IdleLanesNeverDivideByZero) {
  // W + 1 systems of one group: once the short ones finish, W - 1 lanes
  // have no system left and step the identity system. No lane may divide
  // by zero or produce a NaN or an infinity.
  Rng rng(77);
  const std::vector<LaneRun> runs = one_group(rng, spice::kLanes + 1);
  std::vector<spice::TranSystem> systems;
  for (const LaneRun& r : runs) systems.emplace_back(r.ckt, r.tran, r.probe);
  bool all_finite = true;
  std::feclearexcept(FE_ALL_EXCEPT);
  spice::simulate_batch(systems, [&](std::size_t, std::span<const double> samples) {
    for (const double v : samples) all_finite = all_finite && std::isfinite(v);
  });
  EXPECT_EQ(std::fetestexcept(FE_DIVBYZERO | FE_INVALID | FE_OVERFLOW), 0);
  EXPECT_TRUE(all_finite);
}

/// The analyzer's reduced-mna injected contributions on `g` against
/// estimate_reduced run pair by pair, bit for bit.
void expect_analyzer_matches_per_pair(const gen::Generated& g, int threads) {
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.model = noise::GlitchModel::kReducedMna;
  o.mode = noise::AnalysisMode::kNoFiltering;
  o.min_peak = 0.0;  // keep every pair's contribution
  o.clock_period = g.sta_options.clock_period;
  o.threads = threads;
  const noise::Result res = noise::analyze(g.design, g.para, timing, o);
  std::size_t checked = 0;
  for (std::size_t vi = 0; vi < res.nets.size(); ++vi) {
    for (const noise::Contribution& c : res.nets[vi].contributions) {
      if (c.is_propagated()) continue;
      const sta::NetTiming& at = timing.nets[c.aggressor.index()];
      const double slew = std::max(at.slew_min > 0.0 ? at.slew_min : o.default_slew, 1e-12);
      const noise::GlitchEstimate want = noise::estimate_reduced(
          g.design, g.para, NetId{vi}, c.aggressor, slew, g.design.library().vdd());
      EXPECT_TRUE(same_bits(c.peak, want.peak)) << g.design.net(NetId{vi}).name;
      EXPECT_TRUE(same_bits(c.width, want.width)) << g.design.net(NetId{vi}).name;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(LaneOracle, AnalyzerReducedMnaEqualsPerPairEstimates) {
  const lib::Library library = lib::default_library();
  expect_analyzer_matches_per_pair(oracle_bus(library, 9), 1);
  expect_analyzer_matches_per_pair(oracle_bus(library, 10), 2);
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 8;
  cfg.gates = 60;
  cfg.levels = 4;
  cfg.seed = 5;
  expect_analyzer_matches_per_pair(gen::make_rand_logic(library, cfg), 2);
}

}  // namespace
}  // namespace nw
