// The flat, in-place transient engine against the reference loop in
// tests/spice/reference.hpp: every sample must match bit for bit (memcmp),
// on seeded random RC circuits, on the MNA glitch models' bus pairs, and on
// every lane of a batched run (spice::simulate_batch), whatever the mix of
// circuit structures, step counts and batch sizes. Then the closed-form
// reduced-MNA model (noise/reduced_mna.hpp) against the stepped run of the
// same circuit (tests/noise/reduced_circuit.hpp), within a declared
// tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/suite.hpp"
#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "library/library.hpp"
#include "noise/analyzer.hpp"
#include "noise/context.hpp"
#include "noise/glitch_models.hpp"
#include "noise/reduced_circuit.hpp"
#include "noise/reduced_mna.hpp"
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

/// The samples of `node` from a batch of one system probing it.
std::vector<double> probe_samples(const spice::Circuit& ckt, const spice::TranOptions& opt,
                                  std::size_t node) {
  const spice::TranSystem systems[] = {spice::TranSystem(ckt, opt, node)};
  std::vector<double> samples;
  spice::simulate_batch(systems, [&](std::size_t, std::span<const double> s) {
    samples.assign(s.begin(), s.end());
  });
  return samples;
}

spice::Pwl random_wave(Rng& rng) {
  const double v = rng.uniform(-1.5, 1.5);
  switch (rng.below(3)) {
    case 0:
      return spice::Pwl::ramp(rng.uniform(0.0, 40 * PS), rng.uniform(5 * PS, 60 * PS), 0.0,
                              v);
    case 1: {  // a pulse: ramp up, hold, ramp back down
      const double hold = rng.uniform(0.0, 50 * PS);
      const double tr = rng.uniform(5 * PS, 30 * PS);
      const double t0 = rng.uniform(0.0, 40 * PS);
      return spice::Pwl({{t0, 0.0}, {t0 + tr, v}, {t0 + tr + hold, v}, {t0 + 2 * tr + hold, 0.0}});
    }
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
    EXPECT_TRUE(same_bits(probe_samples(ckt, opt, node), w.samples()))
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
    (void)spice::TranSystem(ckt, {1e-3, 5e-14}, n);
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
  EXPECT_THROW((void)spice::TranSystem(ckt, {1e-9, 1e-12}, 2), std::out_of_range);
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

    // The reduced circuit, stepped in a lane, equals the reference run;
    // the closed form is checked against that run in ReducedOracle below.
    const ref::ReducedCircuit rc = ref::reduced_circuit(
        noise::reduced_pair(g.design, g.para, victim, aggressor, slew, vdd));
    EXPECT_TRUE(same_bits(probe_samples(rc.circuit, rc.tran, rc.probe),
                          ref::simulate(rc.circuit, rc.tran).waveform(rc.probe).samples()));

    spice::ClusterSpec spec;
    spec.victim = victim;
    spec.vdd = vdd;
    spec.aggressors.push_back({aggressor, 0.0, slew, true});
    const spice::Cluster cl = spice::build_cluster(g.design, g.para, spec);
    const spice::GlitchMeasure want_m = spice::measure_glitch(
        ref::simulate(cl.circuit, tran).waveform(cl.victim_probe), 0.0);
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

/// One of the reduced circuit's 16 topologies with seeded values. The
/// pattern's bits choose a resistive aggressor driver (else a 0-ohm driver:
/// the ramp drives a1), an aggressor far node (else a2 == a1), a victim far
/// node (else v2 == v1) and a resistive holder (else an ideal 0 V source).
/// With `grounded` false no node has a grounded capacitance, so nodes tied
/// only by the coupling make C singular.
noise::ReducedPair pattern_pair(Rng& rng, unsigned pattern, bool grounded = true) {
  const auto ground_cap = [&] { return grounded ? rng.uniform(2 * FF, 8 * FF) : 0.0; };
  noise::ReducedPair p;
  p.slew = rng.uniform(10 * PS, 80 * PS);
  p.vdd = 1.2;
  p.r_drv = (pattern & 1u) != 0 ? rng.uniform(300.0, 3000.0) : 0.0;
  p.aggressor.c_near = ground_cap();
  if ((pattern & 2u) != 0) {
    p.aggressor.r = rng.uniform(20.0, 200.0);
    p.aggressor.c_far = ground_cap();
  }
  p.r_hold = (pattern & 8u) != 0 ? rng.uniform(500.0, 5000.0) : 0.0;
  p.victim.c_near = ground_cap();
  if ((pattern & 4u) != 0) {
    p.victim.r = rng.uniform(20.0, 200.0);
    p.victim.c_far = ground_cap();
  }
  p.cc = rng.uniform(2 * FF, 10 * FF);
  return p;
}

/// A run of pattern_pair's circuit on its own window and step, so every
/// lane has its own step count.
LaneRun pattern_run(Rng& rng, unsigned pattern) {
  ref::ReducedCircuit rc = ref::reduced_circuit(pattern_pair(rng, pattern));
  const spice::TranOptions tran{rng.uniform(150 * PS, 400 * PS), rng.uniform(0.3 * PS, 1 * PS)};
  return {std::move(rc.circuit), tran, rc.probe};
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
      ref::ReducedCircuit rc = ref::reduced_circuit(noise::reduced_pair(
          g.design, g.para, victim, aggressor, rng.uniform(10 * PS, 80 * PS), library.vdd()));
      runs.push_back({std::move(rc.circuit), rc.tran, rc.probe});
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
/// estimate_reduced run pair by pair, bit for bit. Every pair of the
/// analysis context is estimated: the ones with a contribution must match
/// it, and the ones the analysis dropped must peak below kMinPeak.
void expect_analyzer_matches_per_pair(const gen::Generated& g, int threads) {
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.model = noise::GlitchModel::kReducedMna;
  o.mode = noise::AnalysisMode::kNoFiltering;
  o.clock_period = g.sta_options.clock_period;
  o.threads = threads;
  const noise::Result res = noise::analyze(g.design, g.para, timing, o);
  const noise::AnalysisContext ctx =
      noise::AnalysisContext::build(g.design, g.para, timing, o);
  std::size_t kept = 0;
  for (std::size_t vi = 0; vi < res.nets.size(); ++vi) {
    SCOPED_TRACE(g.design.net(NetId{vi}).name);
    // Injected contributions follow the context row, minus dropped pairs.
    std::vector<const noise::Contribution*> injected;
    for (const noise::Contribution& c : res.nets[vi].contributions) {
      if (!c.is_propagated()) injected.push_back(&c);
    }
    std::size_t next = 0;
    for (std::uint32_t k = ctx.agg_offsets[vi]; k < ctx.agg_offsets[vi + 1]; ++k) {
      const NetId aggressor = ctx.agg_net[k];
      const sta::NetTiming& at = timing.nets[aggressor.index()];
      const double slew =
          std::max(at.slew_min > 0.0 ? at.slew_min : noise::kDefaultSlew, 1e-12);
      const noise::GlitchEstimate want = noise::estimate_reduced(
          g.design, g.para, NetId{vi}, aggressor, slew, g.design.library().vdd());
      if (next < injected.size() && injected[next]->aggressor == aggressor) {
        EXPECT_TRUE(same_bits(injected[next]->peak, want.peak));
        EXPECT_TRUE(same_bits(injected[next]->width, want.width));
        ++next;
      } else {
        EXPECT_LT(want.peak, noise::kMinPeak) << g.design.net(aggressor).name;
      }
    }
    EXPECT_EQ(next, injected.size());
    kept += next;
  }
  EXPECT_GT(kept, 0u);
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

/// Relative difference of a closed-form measure from its stepped value.
double rel_diff(double closed, double stepped) {
  return closed == stepped ? 0.0 : std::abs(closed - stepped) / std::abs(stepped);
}

/// The declared tolerance of the closed form against the stepped engine:
/// peak and width within 1e-4 relative, and the peak time within one step
/// or, on a flat top, between two samples one of which is within 1e-4 of
/// the stepped peak.
constexpr double kOracleTolerance = 1e-4;

bool within_tolerance(const spice::GlitchMeasure& closed, const ref::SteppedGlitch& stepped,
                      double dt) {
  const spice::GlitchMeasure& s = stepped.measure;
  if (rel_diff(closed.peak, s.peak) > kOracleTolerance) return false;
  if (s.peak == 0.0) return true;
  const bool same_time = std::abs(closed.t_peak - s.t_peak) <= dt;
  const bool flat_top = rel_diff(stepped.near, s.peak) <= kOracleTolerance;
  return rel_diff(closed.width, s.width) <= kOracleTolerance && (same_time || flat_top);
}

/// Two stepped runs of one pair agree to a tenth of the tolerance.
bool converged(const spice::GlitchMeasure& a, const spice::GlitchMeasure& b) {
  return rel_diff(a.peak, b.peak) <= 0.1 * kOracleTolerance &&
         rel_diff(a.width, b.width) <= 0.1 * kOracleTolerance;
}

/// Checks measure_reduced on every pair against the stepped run of its
/// reduced circuit over a window extended to settle the slowest mode
/// (slew + 12 mu_max, never shorter than the shipped window). The shipped
/// step is sized from the slew and the victim's holding time constant
/// alone; a mode faster than two steps rings under the trapezoidal rule
/// and can make two successive runs agree on a wrong value. So the run
/// starts at no more than half the fastest mode (mu_min) as well,
/// shortened to divide the slew so that a sample lands on the end of the
/// ramp, where the probe has a kink, and halves the step until two
/// successive runs agree to a tenth of the tolerance. Prints the largest
/// differences, how many pairs needed more than one halving, and how many
/// differ beyond the tolerance from the stepped engine as it shipped
/// (shipped window and step).
void expect_closed_form_matches_stepped(const std::vector<noise::ReducedPair>& pairs,
                                        const char* what) {
  const std::size_t n = pairs.size();
  std::vector<spice::GlitchMeasure> closed;
  std::vector<double> t_peak;
  std::vector<spice::TranOptions> shipped;
  std::vector<spice::TranOptions> tran;
  for (const noise::ReducedPair& p : pairs) {
    closed.push_back(noise::measure_reduced(p));
    t_peak.push_back(closed.back().t_peak);
    shipped.push_back(ref::reduced_circuit(p).tran);
    const ref::TimeConstants tc = ref::time_constants(p);
    spice::TranOptions t = shipped.back();
    t.t_stop = std::max(t.t_stop, p.slew + 12.0 * tc.slowest);
    if (tc.fastest > 0.0) t.dt = std::min(t.dt, 0.5 * tc.fastest);
    t.dt = p.slew / std::ceil(p.slew / t.dt);
    tran.push_back(t);
  }

  std::vector<ref::SteppedGlitch> stepped = ref::stepped_glitches(pairs, tran, t_peak);
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;
  std::size_t refined = 0;
  int halvings = 0;
  for (; halvings < 8 && !pending.empty(); ++halvings) {
    std::vector<noise::ReducedPair> sub_pairs;
    std::vector<spice::TranOptions> sub_tran;
    std::vector<double> sub_at;
    for (const std::size_t i : pending) {
      sub_pairs.push_back(pairs[i]);
      sub_tran.push_back({tran[i].t_stop, 0.5 * tran[i].dt});
      sub_at.push_back(t_peak[i]);
    }
    const std::vector<ref::SteppedGlitch> finer =
        ref::stepped_glitches(sub_pairs, sub_tran, sub_at);
    std::vector<std::size_t> still;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const std::size_t i = pending[k];
      const bool done = converged(stepped[i].measure, finer[k].measure);
      if (!done && halvings == 0) ++refined;
      if (halvings > 0 || !done) {
        stepped[i] = finer[k];
        tran[i] = sub_tran[k];
      }
      if (!done) still.push_back(i);
    }
    pending = std::move(still);
  }
  EXPECT_TRUE(pending.empty()) << pending.size() << " stepped runs did not converge";

  double peak = 0.0;
  double width = 0.0;
  double steps = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const spice::GlitchMeasure& c = closed[i];
    const spice::GlitchMeasure& s = stepped[i].measure;
    EXPECT_TRUE(within_tolerance(c, stepped[i], tran[i].dt))
        << what << " pair " << i << ": peak " << c.peak << " vs " << s.peak << ", width "
        << c.width << " vs " << s.width << ", t_peak " << c.t_peak << " vs " << s.t_peak
        << " (dt " << tran[i].dt << ")";
    peak = std::max(peak, rel_diff(c.peak, s.peak));
    if (s.peak == 0.0) continue;
    width = std::max(width, rel_diff(c.width, s.width));
    steps = std::max(steps, std::abs(c.t_peak - s.t_peak) / tran[i].dt);
  }

  const std::vector<ref::SteppedGlitch> as_shipped = ref::stepped_glitches(pairs, shipped, t_peak);
  std::size_t outside = 0;
  std::size_t wider = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (within_tolerance(closed[i], as_shipped[i], shipped[i].dt)) continue;
    ++outside;
    wider += closed[i].width > as_shipped[i].measure.width ? 1 : 0;
  }
  std::printf("%s: %zu pairs; closed form vs converged stepped run: largest peak difference "
              "%.3g, width %.3g (relative), t_peak %.3g steps; %zu pairs needed more than "
              "one halving of the starting step (%d at most); vs the stepped engine as "
              "shipped: %zu pairs outside the tolerance, %zu of them wider in closed form\n",
              what, n, peak, width, steps, refined, halvings, outside, wider);
}

TEST(ReducedOracle, ClosedFormMatchesSteppedRunOnEveryBusPair) {
  // Every pair the analyzer estimates on bench::bus_config(1024), at its
  // STA slew.
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_bus(library, bench::bus_config(1024));
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.model = noise::GlitchModel::kReducedMna;
  o.clock_period = g.sta_options.clock_period;
  const noise::AnalysisContext ctx = noise::AnalysisContext::build(g.design, g.para, timing, o);
  std::vector<noise::ReducedPair> pairs;
  for (std::size_t vi = 0; vi < g.design.net_count(); ++vi) {
    for (std::uint32_t k = ctx.agg_offsets[vi]; k < ctx.agg_offsets[vi + 1]; ++k) {
      const sta::NetTiming& at = timing.nets[ctx.agg_net[k].index()];
      const double slew =
          std::max(at.slew_min > 0.0 ? at.slew_min : noise::kDefaultSlew, 1e-12);
      pairs.push_back(noise::reduced_pair(g.design, g.para, NetId{vi}, ctx.agg_net[k], slew,
                                          library.vdd()));
    }
  }
  ASSERT_EQ(pairs.size(), 4090u);
  expect_closed_form_matches_stepped(pairs, "bus_config(1024)");

}

TEST(ReducedOracle, ClosedFormMatchesSteppedRunOnTheRF1Clusters) {
  // The 60 seeded clusters of bench/bench_accuracy.cpp (same generator
  // draws as GlitchAccuracy.ModelsStayWithinDeclaredBoundsOfGolden).
  const lib::Library library = lib::default_library();
  Rng rng(2026);
  std::vector<noise::ReducedPair> pairs;
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
    pairs.push_back(
        noise::reduced_pair(g.design, g.para, victim, aggressor, slew, library.vdd()));
  }
  expect_closed_form_matches_stepped(pairs, "R-F1 clusters");
}

/// Every topology of the reduced circuit, with and without grounded
/// capacitance, four seeded draws each.
std::vector<noise::ReducedPair> topology_pairs() {
  Rng rng(9173);
  std::vector<noise::ReducedPair> pairs;
  for (int draw = 0; draw < 4; ++draw) {
    for (unsigned pattern = 0; pattern < 16; ++pattern) {
      for (const bool grounded : {true, false}) {
        pairs.push_back(pattern_pair(rng, pattern, grounded));
      }
    }
  }
  return pairs;
}

TEST(ReducedOracle, ClosedFormMatchesSteppedRunOnAllTopologies) {
  expect_closed_form_matches_stepped(topology_pairs(), "16 topologies");
}

TEST(ReducedOracle, ClosedFormNeverDividesByZero) {
  // Zero grounded capacitance leaves nodes tied only by the coupling: C is
  // singular and those modes have mu = 0. No pair may divide by zero, take
  // an invalid operation or overflow, and every measure is finite.
  const std::vector<noise::ReducedPair> pairs = topology_pairs();
  std::vector<spice::GlitchMeasure> out(pairs.size());
  std::feclearexcept(FE_ALL_EXCEPT);
  for (std::size_t i = 0; i < pairs.size(); ++i) out[i] = noise::measure_reduced(pairs[i]);
  EXPECT_EQ(std::fetestexcept(FE_DIVBYZERO | FE_INVALID | FE_OVERFLOW), 0);
  for (const spice::GlitchMeasure& m : out) {
    EXPECT_TRUE(std::isfinite(m.peak) && std::isfinite(m.width) && std::isfinite(m.t_peak));
  }
}

}  // namespace
}  // namespace nw
