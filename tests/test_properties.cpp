// Cross-module property sweeps (TEST_P): invariants that must hold over
// randomized designs and configurations.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "parasitics/reduce.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nw {
namespace {

/// Randomized bus configs: pessimism ordering and window soundness must
/// hold for any geometry.
class BusProperty : public ::testing::TestWithParam<int> {
 protected:
  gen::BusConfig config() const {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
    gen::BusConfig cfg;
    cfg.bits = 8 + 4 * rng.below(6);
    cfg.segments = 1 + rng.below(4);
    cfg.coupling_adj = rng.uniform(1 * FF, 8 * FF);
    cfg.coupling_2nd = rng.uniform(0.1 * FF, 2 * FF);
    cfg.port_res = rng.uniform(300.0, 3000.0);
    cfg.stagger_groups = 1 + rng.below(6);
    cfg.stagger = rng.uniform(50 * PS, 400 * PS);
    cfg.seed = rng.next();
    return cfg;
  }
};

TEST_P(BusProperty, PessimismOrderingHolds) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_bus(library, config());
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  noise::Options o;
  o.clock_period = g.sta_options.clock_period;
  o.mode = noise::AnalysisMode::kNoFiltering;
  const noise::Result none = noise::analyze(g.design, g.para, timing, o);
  o.mode = noise::AnalysisMode::kSwitchingWindows;
  const noise::Result sw = noise::analyze(g.design, g.para, timing, o);
  o.mode = noise::AnalysisMode::kNoiseWindows;
  const noise::Result nwm = noise::analyze(g.design, g.para, timing, o);

  for (std::size_t i = 0; i < g.design.net_count(); ++i) {
    EXPECT_GE(none.nets[i].total_peak + 1e-12, sw.nets[i].total_peak);
    EXPECT_GE(sw.nets[i].total_peak + 1e-12, nwm.nets[i].total_peak);
  }
  EXPECT_GE(none.violations.size(), sw.violations.size());
  EXPECT_GE(sw.violations.size(), nwm.violations.size());
}

TEST_P(BusProperty, WorstAlignmentIsAchievable) {
  // The reported worst alignment interval must lie inside every active
  // contribution's window (the combination is temporally feasible).
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_bus(library, config());
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.mode = noise::AnalysisMode::kNoiseWindows;
  o.clock_period = g.sta_options.clock_period;
  const noise::Result r = noise::analyze(g.design, g.para, timing, o);

  for (const auto& nn : r.nets) {
    if (nn.total_peak <= 0.0 || nn.worst_alignment.is_empty()) continue;
    const double t = 0.5 * (nn.worst_alignment.lo + nn.worst_alignment.hi);
    double sum = 0.0;
    for (const auto& c : nn.contributions) {
      if (c.window.contains(t)) sum += c.peak;
    }
    EXPECT_NEAR(sum, nn.total_peak, 1e-9 + 1e-9 * nn.total_peak);
    // The noise window contains the worst alignment.
    EXPECT_TRUE(nn.window.contains(t));
  }
}

TEST_P(BusProperty, StaWindowsAreSound) {
  // Earliest arrival <= latest arrival everywhere; slew range ordered;
  // downstream windows never start before upstream ones.
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_bus(library, config());
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  for (std::size_t i = 0; i < g.design.net_count(); ++i) {
    const auto& nt = timing.nets[i];
    if (!nt.switches()) continue;
    EXPECT_LE(nt.window.lo, nt.window.hi);
    EXPECT_LE(nt.slew_min, nt.slew_max);
    EXPECT_GT(nt.slew_min, 0.0);
  }
  // Receiver-chain nets switch strictly after their wire nets.
  for (std::size_t b = 0; b < 4; ++b) {
    const auto w = *g.design.find_net("w" + std::to_string(b));
    const auto rn = *g.design.find_net("r" + std::to_string(b) + "_0");
    EXPECT_GT(timing.net(rn).window.lo, timing.net(w).window.lo);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusProperty, ::testing::Range(0, 12));

/// Elmore delay on random trees: matches an O(n^2) pairwise reference.
class ElmoreProperty : public ::testing::TestWithParam<int> {};

TEST_P(ElmoreProperty, MatchesQuadraticReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  para::RcNet rc;
  const int n = 2 + static_cast<int>(rng.below(20));
  std::vector<std::uint32_t> nodes{0};
  for (int i = 0; i < n; ++i) {
    const auto parent = nodes[rng.below(nodes.size())];
    const auto nd = rc.add_node(rng.uniform(0.5 * FF, 5 * FF));
    rc.add_res(parent, nd, rng.uniform(10.0, 200.0));
    nodes.push_back(nd);
  }
  rc.add_cap(0, rng.uniform(0.5 * FF, 2 * FF));
  ASSERT_TRUE(rc.is_tree());

  const auto fast = para::elmore_delays(rc);
  // Reference: delay(i) = sum_j C_j * R(path(i) ^ path(j)) via the
  // analysis structure.
  const auto t = para::analyze_tree(rc);
  auto path_res = [&](std::uint32_t node) {
    std::vector<std::pair<std::uint32_t, double>> edges;  // (child, r)
    for (std::uint32_t u = node; u != 0; u = t.parent[u]) {
      edges.emplace_back(u, t.res_to_parent[u]);
    }
    return edges;
  };
  auto on_path_of = [&](std::uint32_t anc_child, std::uint32_t node) {
    for (std::uint32_t u = node; u != 0; u = t.parent[u]) {
      if (u == anc_child) return true;
    }
    return false;
  };
  for (std::uint32_t i = 0; i < rc.node_count(); ++i) {
    double ref = 0.0;
    for (const auto& [child, r] : path_res(i)) {
      for (std::uint32_t j = 0; j < rc.node_count(); ++j) {
        if (on_path_of(child, j)) ref += r * t.cap_at[j];
      }
    }
    EXPECT_NEAR(fast[i], ref, 1e-18 + 1e-9 * ref) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElmoreProperty, ::testing::Range(0, 15));

/// Pi-model positivity and cap conservation over random trees.
class PiProperty : public ::testing::TestWithParam<int> {};

TEST_P(PiProperty, PositiveAndCapConserving) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 577 + 7);
  para::RcNet rc;
  std::vector<std::uint32_t> nodes{0};
  const int n = 1 + static_cast<int>(rng.below(15));
  for (int i = 0; i < n; ++i) {
    const auto parent = nodes[rng.below(nodes.size())];
    const auto nd = rc.add_node(rng.uniform(0.2 * FF, 6 * FF));
    rc.add_res(parent, nd, rng.uniform(5.0, 500.0));
    nodes.push_back(nd);
  }
  const para::PiModel pi = para::pi_model(rc);
  EXPECT_GE(pi.c_near, 0.0);
  EXPECT_GT(pi.c_far, 0.0);
  EXPECT_GT(pi.r, 0.0);
  EXPECT_NEAR(pi.total_cap(), rc.total_ground_cap(), 1e-9 * rc.total_ground_cap());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PiProperty, ::testing::Range(0, 15));

/// Noise-window soundness on random logic: every violation's noise window
/// must overlap its sensitivity window, and slacks must be consistent.
class RandLogicProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandLogicProperty, ViolationConsistency) {
  const lib::Library library = lib::default_library();
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 10;
  cfg.gates = 150;
  cfg.levels = 5;
  cfg.dff_fraction = 0.4;
  cfg.seed = static_cast<std::uint64_t>(GetParam()) * 41 + 11;
  const gen::Generated g = gen::make_rand_logic(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  noise::Options o;
  o.mode = noise::AnalysisMode::kNoiseWindows;
  o.clock_period = g.sta_options.clock_period;
  const noise::Result r = noise::analyze(g.design, g.para, timing, o);

  for (const auto& v : r.violations) {
    EXPECT_LE(v.threshold, v.peak);
    EXPECT_LT(v.slack(), 1e-12);
    EXPECT_TRUE(v.temporal);
    EXPECT_GE(v.width, 0.0);
  }
  EXPECT_EQ(r.endpoint_slacks.size(), r.endpoints_checked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandLogicProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace nw
