// Crosstalk delay-impact computation (noise-on-delay).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "noise/delay_impact.hpp"
#include "sta/sta.hpp"
#include "util/scanline.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

gen::BusConfig bus_cfg(std::size_t stagger_groups) {
  gen::BusConfig cfg;
  cfg.bits = 12;
  cfg.segments = 3;
  cfg.coupling_adj = 6 * FF;
  cfg.stagger_groups = stagger_groups;
  cfg.stagger = 400 * PS;
  cfg.window_width = 40 * PS;
  cfg.jitter = 0.0;
  return cfg;
}

struct Fixture {
  lib::Library library = lib::default_library();
  gen::Generated g;

  explicit Fixture(std::size_t stagger_groups)
      : g(gen::make_bus(library, bus_cfg(stagger_groups))) {}
};

TEST(DelayImpact, AlignedAggressorsShiftDelay) {
  Fixture f(1);  // all windows coincide: aggressors align with victim edges
  const sta::Result timing = sta::run(f.g.design, f.g.para, f.g.sta_options);
  Options o;
  o.clock_period = f.g.sta_options.clock_period;
  const Result r = analyze(f.g.design, f.g.para, timing, o);
  const DelayImpactSummary impact = compute_delay_impact(f.g.design, timing, r, o);

  EXPECT_GT(impact.affected_nets, 0u);
  EXPECT_GT(impact.total_delta, 0.0);
  EXPECT_GE(impact.max_delta, impact.total_delta / static_cast<double>(impact.affected_nets));
  const NetId victim = *f.g.design.find_net("w6");
  EXPECT_GT(impact.net(victim).delta_delay, 0.0);
  // delta = (peak/vdd) * slew by construction.
  const auto& di = impact.net(victim);
  EXPECT_NEAR(di.delta_delay,
              di.peak_during_transition / f.library.vdd() *
                  timing.net(victim).slew_max,
              1e-15);
}

TEST(DelayImpact, DisjointWindowsRemoveImpact) {
  // Victim in group 0, neighbours in other groups 400 ps away: nothing can
  // align with the victim's own transition, so windows zero the impact —
  // while the no-filtering mode still reports it (the pessimism).
  Fixture f(4);
  const sta::Result timing = sta::run(f.g.design, f.g.para, f.g.sta_options);
  const NetId victim = *f.g.design.find_net("w4");  // group 0

  Options windows;
  windows.clock_period = f.g.sta_options.clock_period;
  const Result r_win = analyze(f.g.design, f.g.para, timing, windows);
  const DelayImpactSummary with_windows =
      compute_delay_impact(f.g.design, timing, r_win, windows);

  Options none = windows;
  none.mode = AnalysisMode::kNoFiltering;
  const Result r_none = analyze(f.g.design, f.g.para, timing, none);
  const DelayImpactSummary without =
      compute_delay_impact(f.g.design, timing, r_none, none);

  EXPECT_GT(without.net(victim).delta_delay, 0.0);
  EXPECT_LT(with_windows.net(victim).delta_delay, without.net(victim).delta_delay);
  EXPECT_LT(with_windows.total_delta, without.total_delta);
}

TEST(DelayImpact, QuietNetsHaveNoImpact) {
  Fixture f(1);
  const sta::Result timing = sta::run(f.g.design, f.g.para, f.g.sta_options);
  Options o;
  o.clock_period = f.g.sta_options.clock_period;
  const Result r = analyze(f.g.design, f.g.para, timing, o);
  const DelayImpactSummary impact = compute_delay_impact(f.g.design, timing, r, o);
  for (std::size_t i = 0; i < f.g.design.net_count(); ++i) {
    if (!timing.nets[i].switches()) {
      EXPECT_DOUBLE_EQ(impact.nets[i].delta_delay, 0.0);
    }
  }
}

TEST(DelayImpact, MismatchThrows) {
  Fixture f(1);
  const sta::Result timing = sta::run(f.g.design, f.g.para, f.g.sta_options);
  const Result bogus;
  EXPECT_THROW((void)compute_delay_impact(f.g.design, timing, bogus, Options{}),
               std::invalid_argument);
}

TEST(DelayImpact, ConstraintsReduceImpact) {
  Fixture f(1);
  const sta::Result timing = sta::run(f.g.design, f.g.para, f.g.sta_options);
  const NetId victim = *f.g.design.find_net("w6");

  Options o;
  o.clock_period = f.g.sta_options.clock_period;
  const Result r = analyze(f.g.design, f.g.para, timing, o);
  const double before = compute_delay_impact(f.g.design, timing, r, o).net(victim).delta_delay;

  Options oc = o;
  const std::vector<NetId> grp{*f.g.design.find_net("w5"), *f.g.design.find_net("w7")};
  oc.constraints.add_mutex_group(grp);
  const Result rc = analyze(f.g.design, f.g.para, timing, oc);
  const double after =
      compute_delay_impact(f.g.design, timing, rc, oc).net(victim).delta_delay;
  EXPECT_LT(after, before);
}

/// The worst aligned noise on a switching net by the IntervalSet scan:
/// every contribution as a WeightedWindow, restricted to the victim's
/// transition window (aligned everywhere under no-filtering).
double scan_oracle_peak(const sta::NetTiming& t, const NetNoise& nn, const Options& opt) {
  const bool no_filtering = opt.mode == AnalysisMode::kNoFiltering;
  const Interval edge = t.window.dilated(t.slew_max, t.slew_max);
  std::vector<WeightedWindow> items;
  std::vector<int> groups;
  double sum = 0.0;
  for (const auto& c : nn.contributions) {
    sum += c.peak;
    items.push_back({c.peak, no_filtering ? IntervalSet::everything() : c.window.intersect(edge)});
    groups.push_back(c.aggressor.valid() ? opt.constraints.group_of(c.aggressor) : -1);
  }
  if (!opt.constraints.empty()) return scan_max_overlap_grouped(items, groups).best_sum;
  return no_filtering ? sum : scan_max_overlap(items).best_sum;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Mutex pairs of two aggressors of one victim, each net in one pair at
/// most, so the grouped scan decides the victim's combination.
Constraints aggressor_pairs(const gen::Generated& g) {
  Constraints c;
  std::vector<char> grouped(g.design.net_count(), 0);
  for (std::size_t v = 0; v < g.design.net_count(); ++v) {
    std::vector<NetId> pair;
    for (const std::size_t ci : g.para.couplings_of(NetId{v})) {
      const auto& cc = g.para.coupling(ci);
      const NetId a = cc.net_a == NetId{v} ? cc.net_b : cc.net_a;
      if (grouped[a.index()] || (!pair.empty() && pair.front() == a)) continue;
      pair.push_back(a);
      if (pair.size() == 2) break;
    }
    if (pair.size() < 2) continue;
    for (const NetId a : pair) grouped[a.index()] = 1;
    c.add_mutex_group(pair);
  }
  return c;
}

TEST(DelayImpact, MatchesIntervalSetScanBitForBit) {
  const lib::Library library = lib::default_library();
  std::vector<std::pair<std::string, gen::Generated>> designs;
  for (const std::uint64_t seed : {1, 2}) {
    gen::BusConfig cfg = bus_cfg(seed);  // 1 or 2 arrival groups
    cfg.seed = seed;
    cfg.jitter = 30 * PS;
    cfg.coupling_jitter = 0.3;
    designs.emplace_back("bus seed " + std::to_string(seed), gen::make_bus(library, cfg));
  }
  for (const std::uint64_t seed : {3, 4}) {
    gen::RandLogicConfig cfg;
    cfg.gates = 300;
    cfg.seed = seed;
    designs.emplace_back("logic seed " + std::to_string(seed),
                         gen::make_rand_logic(library, cfg));
  }
  for (const auto& [name, g] : designs) {
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    for (const AnalysisMode mode : {AnalysisMode::kNoFiltering,
                                    AnalysisMode::kSwitchingWindows,
                                    AnalysisMode::kNoiseWindows}) {
      for (const bool grouped : {false, true}) {
        SCOPED_TRACE(name + " " + to_string(mode) + (grouped ? " grouped" : ""));
        Options o;
        o.mode = mode;
        o.clock_period = g.sta_options.clock_period;
        if (grouped) o.constraints = aggressor_pairs(g);
        const Result r = analyze(g.design, g.para, timing, o);
        const DelayImpactSummary impact = compute_delay_impact(g.design, timing, r, o);
        std::size_t affected = 0;
        for (std::size_t i = 0; i < g.design.net_count(); ++i) {
          const sta::NetTiming& t = timing.nets[i];
          const NetNoise& nn = r.nets[i];
          double peak = 0.0;
          double delta = 0.0;
          if (t.switches() && !nn.contributions.empty()) {
            const double p = scan_oracle_peak(t, nn, o);
            if (p >= o.min_peak) {
              ++affected;
              peak = p;
              delta = (p / library.vdd()) * t.slew_max;
            }
          }
          EXPECT_TRUE(same_bits(impact.nets[i].peak_during_transition, peak)) << "net " << i;
          EXPECT_TRUE(same_bits(impact.nets[i].delta_delay, delta)) << "net " << i;
        }
        EXPECT_GT(affected, 0u);
        EXPECT_EQ(impact.affected_nets, affected);
      }
    }
  }
}

}  // namespace
}  // namespace nw::noise
