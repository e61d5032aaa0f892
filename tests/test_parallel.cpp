// Parallel determinism of the staged pipeline: analyze() must produce a
// bit-identical Result for every thread count, and analyze_incremental —
// built on the same stage functions — must still equal a full re-run when
// driven in parallel.
#include <gtest/gtest.h>

#include <string>

#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

/// Exact equality of everything except telemetry (wall times are the only
/// nondeterministic Result fields). Doubles compare with ==, not NEAR:
/// every stage does identical arithmetic in identical order per slot.
void expect_identical(const Result& a, const Result& b) {
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    SCOPED_TRACE("net " + std::to_string(i));
    const NetNoise& x = a.nets[i];
    const NetNoise& y = b.nets[i];
    EXPECT_EQ(x.injected_peak, y.injected_peak);
    EXPECT_EQ(x.propagated_peak, y.propagated_peak);
    EXPECT_EQ(x.total_peak, y.total_peak);
    EXPECT_EQ(x.width, y.width);
    EXPECT_TRUE(x.window == y.window);
    EXPECT_TRUE(x.worst_alignment == y.worst_alignment);
    EXPECT_EQ(x.aggressor_count, y.aggressor_count);
    EXPECT_EQ(x.filtered_temporal, y.filtered_temporal);
    ASSERT_EQ(x.contributions.size(), y.contributions.size());
    for (std::size_t c = 0; c < x.contributions.size(); ++c) {
      EXPECT_EQ(x.contributions[c].aggressor, y.contributions[c].aggressor);
      EXPECT_EQ(x.contributions[c].from_net, y.contributions[c].from_net);
      EXPECT_EQ(x.contributions[c].peak, y.contributions[c].peak);
      EXPECT_EQ(x.contributions[c].width, y.contributions[c].width);
      EXPECT_TRUE(x.contributions[c].window == y.contributions[c].window);
      EXPECT_EQ(x.contributions[c].in_worst, y.contributions[c].in_worst);
    }
  }
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    SCOPED_TRACE("violation " + std::to_string(i));
    EXPECT_EQ(a.violations[i].endpoint, b.violations[i].endpoint);
    EXPECT_EQ(a.violations[i].net, b.violations[i].net);
    EXPECT_EQ(a.violations[i].peak, b.violations[i].peak);
    EXPECT_EQ(a.violations[i].width, b.violations[i].width);
    EXPECT_EQ(a.violations[i].threshold, b.violations[i].threshold);
    EXPECT_TRUE(a.violations[i].sensitivity == b.violations[i].sensitivity);
    EXPECT_EQ(a.violations[i].temporal, b.violations[i].temporal);
  }
  EXPECT_EQ(a.endpoints_checked, b.endpoints_checked);
  EXPECT_EQ(a.noisy_nets, b.noisy_nets);
  EXPECT_EQ(a.aggressors_considered, b.aggressors_considered);
  EXPECT_EQ(a.aggressors_filtered_temporal, b.aggressors_filtered_temporal);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.iteration_violations, b.iteration_violations);
  EXPECT_EQ(a.endpoint_slacks, b.endpoint_slacks);
}

gen::Generated bus_case(const lib::Library& library) {
  gen::BusConfig cfg;
  cfg.bits = 32;
  cfg.segments = 3;
  cfg.coupling_adj = 5 * FF;
  cfg.stagger_groups = 4;
  cfg.seed = 7;
  return gen::make_bus(library, cfg);
}

gen::Generated logic_case(const lib::Library& library) {
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 12;
  cfg.gates = 300;
  cfg.levels = 6;
  cfg.coupling_prob = 0.6;
  cfg.dff_fraction = 0.3;
  cfg.seed = 11;
  return gen::make_rand_logic(library, cfg);
}

class ParallelDeterminism : public ::testing::TestWithParam<AnalysisMode> {};

TEST_P(ParallelDeterminism, BusIdenticalAcrossThreadCounts) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  Options o;
  o.mode = GetParam();
  o.clock_period = g.sta_options.clock_period;
  o.threads = 1;
  const Result serial = analyze(g.design, g.para, timing, o);
  EXPECT_EQ(serial.telemetry.threads, 1);
  for (const int threads : {2, 8}) {
    o.threads = threads;
    const Result parallel = analyze(g.design, g.para, timing, o);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(parallel.telemetry.threads, threads);
    expect_identical(serial, parallel);
  }
}

TEST_P(ParallelDeterminism, LogicIdenticalAcrossThreadCounts) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = logic_case(library);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  Options o;
  o.mode = GetParam();
  o.clock_period = g.sta_options.clock_period;
  o.threads = 1;
  const Result serial = analyze(g.design, g.para, timing, o);
  for (const int threads : {2, 8}) {
    o.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(serial, analyze(g.design, g.para, timing, o));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ParallelDeterminism,
                         ::testing::Values(AnalysisMode::kNoFiltering,
                                           AnalysisMode::kSwitchingWindows,
                                           AnalysisMode::kNoiseWindows),
                         [](const ::testing::TestParamInfo<AnalysisMode>& info) {
                           switch (info.param) {
                             case AnalysisMode::kNoFiltering: return "NoFiltering";
                             case AnalysisMode::kSwitchingWindows: return "SwitchingWindows";
                             case AnalysisMode::kNoiseWindows: return "NoiseWindows";
                           }
                           return "Unknown";
                         });

/// The MNA models run one transient per pair into the per-thread estimate
/// scratch; a pair's answer must not depend on which thread ran it or on
/// what that thread ran before.
void expect_model_identical_across_threads(const gen::Generated& g, GlitchModel model) {
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  for (const AnalysisMode mode :
       {AnalysisMode::kNoFiltering, AnalysisMode::kNoiseWindows}) {
    Options o;
    o.model = model;
    o.mode = mode;
    o.clock_period = g.sta_options.clock_period;
    o.threads = 1;
    const Result serial = analyze(g.design, g.para, timing, o);
    EXPECT_GT(serial.aggressors_considered, 0u);
    for (const int threads : {2, 8}) {
      o.threads = threads;
      SCOPED_TRACE(std::string(to_string(model)) + " mode=" +
                   std::to_string(static_cast<int>(mode)) +
                   " threads=" + std::to_string(threads));
      expect_identical(serial, analyze(g.design, g.para, timing, o));
    }
  }
}

TEST(ParallelDeterminism, ReducedMnaBusIdenticalAcrossThreadCounts) {
  const lib::Library library = lib::default_library();
  expect_model_identical_across_threads(bus_case(library), GlitchModel::kReducedMna);
}

TEST(ParallelDeterminism, MnaExactSmallBusIdenticalAcrossThreadCounts) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 8;
  cfg.segments = 2;
  cfg.coupling_adj = 5 * FF;
  cfg.stagger_groups = 2;
  cfg.seed = 5;
  expect_model_identical_across_threads(gen::make_bus(library, cfg), GlitchModel::kMnaExact);
}

TEST(ParallelDeterminism, RefinementIsDeterministicToo) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  Options o;
  o.clock_period = g.sta_options.clock_period;
  o.refine_iterations = 2;
  o.threads = 1;
  const Result serial = analyze(g.design, g.para, timing, o);
  o.threads = 8;
  expect_identical(serial, analyze(g.design, g.para, timing, o));
}

TEST(ParallelIncremental, StagedIncrementalEqualsFullRerunInParallel) {
  // ECO flow entirely on the staged pipeline at 8 threads: a coupling
  // change re-analyzed incrementally must equal the parallel full re-run
  // (which in turn equals the serial one, by the tests above).
  const lib::Library library = lib::default_library();
  gen::Generated g = logic_case(library);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  Options o;
  o.clock_period = g.sta_options.clock_period;
  o.threads = 8;
  const Result before = analyze(g.design, g.para, timing, o);

  ASSERT_FALSE(g.para.couplings().empty());
  const auto& cc = g.para.couplings().front();
  const NetId a = cc.net_a;
  const NetId b = cc.net_b;
  g.para.add_coupling(a, cc.node_a, b, cc.node_b, 40 * FF);

  const Result full = analyze(g.design, g.para, timing, o);
  const std::vector<NetId> changed{a, b};
  const Result inc = analyze_incremental(g.design, g.para, timing, o, before, changed);
  expect_identical(full, inc);
  EXPECT_GT(inc.telemetry.victims_reused, 0u);
  EXPECT_GT(inc.telemetry.victims_estimated, 0u);
}

TEST(ParallelIncremental, NoChangeReusesEveryVictim) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  Options o;
  o.clock_period = g.sta_options.clock_period;
  o.threads = 4;
  const Result full = analyze(g.design, g.para, timing, o);
  const Result inc = analyze_incremental(g.design, g.para, timing, o, full, {});
  expect_identical(full, inc);
  EXPECT_EQ(inc.telemetry.victims_estimated, 0u);
  EXPECT_EQ(inc.telemetry.victims_reused, g.design.net_count());
}

}  // namespace
}  // namespace nw::noise
