// Whole-pipeline integration: generate -> (SPEF round trip) -> STA ->
// noise analysis -> cross-check against the MNA golden simulator.
#include <gtest/gtest.h>

#include "gen/bus.hpp"
#include "gen/pipeline.hpp"
#include "gen/randlogic.hpp"
#include "library/liberty_io.hpp"
#include "noise/analyzer.hpp"
#include "parasitics/spef.hpp"
#include "spice/cluster.hpp"
#include "spice/transient.hpp"
#include "sta/sta.hpp"
#include "text_io.hpp"
#include "util/interval_ref.hpp"
#include "util/units.hpp"

namespace nw {
namespace {

TEST(Integration, BusFullFlow) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 24;
  cfg.segments = 3;
  cfg.coupling_adj = 6 * FF;
  cfg.port_res = 1200.0;
  gen::Generated g = gen::make_bus(library, cfg);
  ASSERT_TRUE(g.design.lint().empty());

  // Round-trip parasitics through the SPEF format before analysis: the
  // exchange format must be analysis-lossless.
  const para::Parasitics para =
      textio::parsed(para::read_spef, textio::written(para::write_spef, g.design, g.para),
                     g.design);

  const sta::Result timing = sta::run(g.design, para, g.sta_options);
  // Every wire switches.
  for (std::size_t b = 0; b < cfg.bits; ++b) {
    const auto id = *g.design.find_net("w" + std::to_string(b));
    EXPECT_TRUE(timing.net(id).switches());
  }

  noise::Options nopt;
  nopt.mode = noise::AnalysisMode::kNoiseWindows;
  nopt.clock_period = g.sta_options.clock_period;
  const noise::Result r = noise::analyze(g.design, para, timing, nopt);

  // Interior wires see 4 aggressors (2 adjacent + 2 second-neighbour).
  const auto mid = *g.design.find_net("w12");
  EXPECT_EQ(r.net(mid).aggressor_count, 4u);
  EXPECT_GT(r.net(mid).total_peak, 0.0);
  EXPECT_TRUE(ref::valid_invariant(r.net(mid).window));
  // Edge wires see fewer aggressors. (Their per-aggressor glitch can be
  // *larger* — less quiet-neighbour grounding — so only counts compare.)
  const auto edge = *g.design.find_net("w0");
  EXPECT_EQ(r.net(edge).aggressor_count, 2u);
  EXPECT_GT(r.net(edge).total_peak, 0.0);
}

TEST(Integration, AnalyticNoiseIsConservativeVsGoldenOnWorstNet) {
  // The static answer (two-pi + scan alignment) must upper-bound a golden
  // transient where all worst-set aggressors fire at their worst alignment.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 10;
  cfg.segments = 3;
  cfg.coupling_adj = 5 * FF;
  cfg.stagger_groups = 1;  // everyone can align
  gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  noise::Options nopt;
  nopt.mode = noise::AnalysisMode::kNoiseWindows;
  nopt.clock_period = g.sta_options.clock_period;
  const noise::Result r = noise::analyze(g.design, g.para, timing, nopt);

  const NetId victim = *g.design.find_net("w5");
  const noise::NetNoise& nn = r.net(victim);
  ASSERT_GT(nn.total_peak, 0.0);

  // Fire every worst-set aggressor simultaneously in the golden simulator.
  spice::ClusterSpec spec;
  spec.victim = victim;
  spec.vdd = library.vdd();
  const double align = nn.worst_alignment.is_empty()
                           ? 0.0
                           : 0.5 * (nn.worst_alignment.lo + nn.worst_alignment.hi);
  for (const auto& c : nn.contributions) {
    if (!c.in_worst || c.is_propagated()) continue;
    const double slew = std::max(timing.net(c.aggressor).slew_min, 1e-12);
    spec.aggressors.push_back({c.aggressor, align, slew, true});
  }
  ASSERT_FALSE(spec.aggressors.empty());
  const spice::Cluster cl = spice::build_cluster(g.design, g.para, spec);
  const spice::TransientResult sim = spice::simulate(cl.circuit, {3 * NS, 0.5 * PS});
  const spice::GlitchMeasure gm =
      spice::measure_glitch(sim.waveform(cl.victim_probe), 0.0);

  EXPECT_GT(gm.peak, 0.0);
  EXPECT_GE(nn.total_peak * 1.001, gm.peak)
      << "static analysis must not underestimate the golden glitch";
  // ...and should not be absurdly pessimistic either (< 4x here).
  EXPECT_LT(nn.total_peak, 4.0 * gm.peak);
}

TEST(Integration, PipelineLatchPessimismStory) {
  const lib::Library library = lib::default_library();
  gen::PipelineConfig cfg;
  cfg.paths = 24;
  cfg.coupling_cap = 22 * FF;
  gen::Generated g = gen::make_pipeline(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  std::size_t v_none = 0;
  std::size_t v_nw = 0;
  for (const auto mode :
       {noise::AnalysisMode::kNoFiltering, noise::AnalysisMode::kNoiseWindows}) {
    noise::Options nopt;
    nopt.mode = mode;
    nopt.clock_period = g.sta_options.clock_period;
    const noise::Result r = noise::analyze(g.design, g.para, timing, nopt);
    if (mode == noise::AnalysisMode::kNoFiltering) {
      v_none = r.violations.size();
    } else {
      v_nw = r.violations.size();
    }
  }
  // The pipeline's glitches land early in the cycle: the sensitivity-window
  // check must clear violations that amplitude-only analysis reports.
  EXPECT_GT(v_none, 0u);
  EXPECT_LT(v_nw, v_none);
}

TEST(Integration, RandLogicEndToEnd) {
  const lib::Library library = lib::default_library();
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 16;
  cfg.gates = 400;
  cfg.levels = 6;
  cfg.dff_fraction = 0.3;
  gen::Generated g = gen::make_rand_logic(library, cfg);
  ASSERT_TRUE(g.design.lint().empty());

  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options nopt;
  nopt.clock_period = g.sta_options.clock_period;
  for (const auto mode :
       {noise::AnalysisMode::kNoFiltering, noise::AnalysisMode::kSwitchingWindows,
        noise::AnalysisMode::kNoiseWindows}) {
    nopt.mode = mode;
    const noise::Result r = noise::analyze(g.design, g.para, timing, nopt);
    EXPECT_GT(r.endpoints_checked, 0u);
    EXPECT_EQ(r.endpoint_slacks.size(), r.endpoints_checked);
    for (const auto& nn : r.nets) {
      EXPECT_GE(nn.total_peak, 0.0);
      EXPECT_TRUE(ref::valid_invariant(nn.window));
    }
  }
}

TEST(Integration, LibraryRoundTripPreservesAnalysis) {
  // Serialize the library, reload it, rebuild the same design: identical
  // noise results (the .nlib format is analysis-lossless).
  const lib::Library lib_a = lib::default_library();
  const lib::Library lib_b =
      textio::parsed(lib::read_library, textio::written(lib::write_library, lib_a));

  gen::BusConfig cfg;
  cfg.bits = 8;
  auto run_with = [&](const lib::Library& lib) {
    gen::Generated g = gen::make_bus(lib, cfg);
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    noise::Options nopt;
    nopt.clock_period = g.sta_options.clock_period;
    const noise::Result r = noise::analyze(g.design, g.para, timing, nopt);
    return r.net(*g.design.find_net("w4")).total_peak;
  };
  EXPECT_DOUBLE_EQ(run_with(lib_a), run_with(lib_b));
}

}  // namespace
}  // namespace nw
