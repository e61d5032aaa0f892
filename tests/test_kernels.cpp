// The flat kernel path (noise/kernels.hpp), checked against independent
// definitions rather than against a second implementation: the
// AnalysisContext's slabs must equal the raw couplings and the levelized
// schedule they are defined by, each flat kernel must equal its
// definition (a brute-force oracle for combine_flat, repeated
// IntervalSet::add for union_flat), and on random designs every net's
// combined noise, window and injected contributions must equal what the
// definitions give for its own contribution set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <span>
#include <vector>

#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "noise/context.hpp"
#include "noise/glitch_models.hpp"
#include "noise/kernels.hpp"
#include "sta/sta.hpp"
#include "util/executor.hpp"
#include "util/scan_ref.hpp"
#include "util/scanline.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

gen::Generated bus_case(const lib::Library& library, std::size_t seed) {
  gen::BusConfig cfg;
  cfg.bits = 32;
  cfg.segments = 3;
  cfg.coupling_adj = 5 * FF;
  cfg.stagger_groups = 4;
  cfg.seed = seed;
  return gen::make_bus(library, cfg);
}

gen::Generated logic_case(const lib::Library& library, std::size_t seed) {
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 12;
  cfg.gates = 300;
  cfg.levels = 6;
  cfg.coupling_prob = 0.6;
  cfg.dff_fraction = 0.3;
  cfg.seed = seed;
  return gen::make_rand_logic(library, cfg);
}

// ---------------------------------------------------------------------------
// AnalysisContext against its definition
// ---------------------------------------------------------------------------

/// Both seeded design families the structure tests run on.
std::vector<gen::Generated> context_cases(const lib::Library& library) {
  std::vector<gen::Generated> out;
  for (const std::size_t seed : {5u, 11u}) {
    out.push_back(bus_case(library, seed));
    out.push_back(logic_case(library, seed));
  }
  return out;
}

/// A victim's raw aggressor sums straight from Parasitics::couplings_of():
/// caps summed per aggressor in incidence order, keyed (and so ordered) by
/// aggressor id.
std::map<NetId::value_type, double> raw_pair_sums(const para::Parasitics& para,
                                                  NetId victim) {
  std::map<NetId::value_type, double> sums;
  for (const auto ci : para.couplings_of(victim)) {
    const auto& cc = para.coupling(ci);
    sums[cc.other_net(victim).value()] += cc.c;
  }
  return sums;
}

/// Each CSR row is the victim's raw pair sums at or above kMinCouplingCap,
/// sorted by aggressor id, and pairs_filtered_cap counts the rest. Weak
/// couplings (0.6 x the threshold) on every fifth net put pairs below it;
/// one that lands on an already coupled pair is kept through the sum.
TEST(AnalysisContext, AdjacencyMatchesCouplingDefinition) {
  const lib::Library library = lib::default_library();
  for (gen::Generated& g : context_cases(library)) {
    SCOPED_TRACE(g.design.name());
    const std::size_t n = g.design.net_count();
    for (std::size_t vi = 0; vi + 3 < n; vi += 5) {
      g.para.add_coupling(NetId{vi}, 0, NetId{vi + 3}, 0, 0.6 * kMinCouplingCap);
    }
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    const AnalysisContext ctx = AnalysisContext::build(g.design, g.para, timing, Options{});
    ASSERT_EQ(ctx.agg_offsets.size(), n + 1);
    EXPECT_EQ(ctx.agg_offsets.front(), 0u);
    EXPECT_EQ(ctx.agg_offsets.back(), ctx.agg_net.size());
    ASSERT_EQ(ctx.agg_cap.size(), ctx.agg_net.size());
    std::size_t kept = 0;
    std::size_t filtered = 0;
    for (std::size_t vi = 0; vi < n; ++vi) {
      std::vector<std::pair<NetId, double>> expected;
      for (const auto& [agg, c] : raw_pair_sums(g.para, NetId{vi})) {
        if (c >= kMinCouplingCap) {
          expected.emplace_back(NetId{agg}, c);
        } else {
          ++filtered;
        }
      }
      const std::uint32_t row = ctx.agg_offsets[vi];
      ASSERT_EQ(ctx.agg_offsets[vi + 1] - row, expected.size()) << "net " << vi;
      for (std::size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(ctx.agg_net[row + j], expected[j].first) << "net " << vi;
        EXPECT_EQ(ctx.agg_cap[row + j], expected[j].second) << "net " << vi;
      }
      kept += expected.size();
    }
    EXPECT_EQ(ctx.pairs_filtered_cap, filtered);
    EXPECT_EQ(ctx.agg_net.size(), kept);
    EXPECT_GT(kept, 0u);
    EXPECT_GT(filtered, 0u);
  }
}

/// Every instance appears exactly once in the level slabs, with its own
/// cell and its valid input/output nets in pin order. Sequential instances
/// sit at level 0; every other instance one level above its deepest
/// combinational fanin (port-driven, sequential-driven and undriven inputs
/// count as level 0).
TEST(AnalysisContext, LevelSlabsMatchDefinition) {
  const lib::Library library = lib::default_library();
  for (const gen::Generated& g : context_cases(library)) {
    SCOPED_TRACE(g.design.name());
    const net::Design& d = g.design;
    const sta::Result timing = sta::run(d, g.para, g.sta_options);
    const AnalysisContext ctx = AnalysisContext::build(d, g.para, timing, Options{});
    const std::size_t slots = ctx.slab_cell.size();
    ASSERT_GE(ctx.level_offsets.size(), 2u);
    EXPECT_EQ(ctx.level_offsets.front(), 0u);
    ASSERT_EQ(ctx.level_offsets.back(), slots);
    ASSERT_EQ(ctx.slab_seq.size(), slots);
    ASSERT_EQ(ctx.in_offsets.size(), slots + 1);
    ASSERT_EQ(ctx.out_offsets.size(), slots + 1);
    EXPECT_EQ(ctx.in_offsets.back(), ctx.in_net.size());
    EXPECT_EQ(ctx.out_offsets.back(), ctx.out_net.size());

    // Identify each slab position by the driver of its first output net
    // (every net has one driver), then check the position against it.
    constexpr std::size_t kUnplaced = ~std::size_t{0};
    std::vector<std::size_t> level_of(d.instance_count(), kUnplaced);
    for (std::size_t li = 0; li < ctx.level_count(); ++li) {
      for (std::size_t pos = ctx.level_offsets[li]; pos < ctx.level_offsets[li + 1];
           ++pos) {
        ASSERT_LT(ctx.out_offsets[pos], ctx.out_offsets[pos + 1]) << "slab " << pos;
        const NetId first_out = ctx.out_net[ctx.out_offsets[pos]];
        const InstId inst = d.pin(d.net(first_out).driver).inst;
        ASSERT_EQ(level_of[inst.index()], kUnplaced) << d.instance(inst).name;
        level_of[inst.index()] = li;
        const lib::Cell& cell = d.cell_of(inst);
        EXPECT_EQ(ctx.slab_cell[pos], &cell);
        EXPECT_EQ(ctx.slab_seq[pos], cell.is_sequential() ? 1 : 0);
        std::vector<NetId> ins;
        std::vector<NetId> outs;
        for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
          const NetId net = d.pin(d.instance(inst).pins[pi]).net;
          if (!net.valid()) continue;
          (cell.pins[pi].dir == lib::PinDir::kInput ? ins : outs).push_back(net);
        }
        EXPECT_TRUE(std::equal(ins.begin(), ins.end(),
                               ctx.in_net.begin() + ctx.in_offsets[pos],
                               ctx.in_net.begin() + ctx.in_offsets[pos + 1]));
        EXPECT_TRUE(std::equal(outs.begin(), outs.end(),
                               ctx.out_net.begin() + ctx.out_offsets[pos],
                               ctx.out_net.begin() + ctx.out_offsets[pos + 1]));
      }
    }
    ASSERT_EQ(slots, d.instance_count());
    std::size_t top = 0;
    for (std::size_t i = 0; i < d.instance_count(); ++i) {
      const InstId inst{i};
      const lib::Cell& cell = d.cell_of(inst);
      ASSERT_NE(level_of[i], kUnplaced) << d.instance(inst).name;
      top = std::max(top, level_of[i]);
      if (cell.is_sequential()) {
        EXPECT_EQ(level_of[i], 0u) << d.instance(inst).name;
        continue;
      }
      std::size_t deepest = 0;
      for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
        if (cell.pins[pi].dir != lib::PinDir::kInput) continue;
        const NetId net = d.pin(d.instance(inst).pins[pi]).net;
        if (!net.valid() || !d.net(net).driver.valid()) continue;
        const net::Pin& drv = d.pin(d.net(net).driver);
        if (drv.kind != net::PinKind::kInstance || d.cell_of(drv.inst).is_sequential()) {
          continue;
        }
        deepest = std::max(deepest, level_of[drv.inst.index()]);
      }
      EXPECT_EQ(level_of[i], deepest + 1) << d.instance(inst).name;
    }
    EXPECT_EQ(ctx.level_count(), top + 1);
  }
}

/// The context levelizes from STA's Kahn order, so an STA result whose
/// order does not cover the design's instances is refused.
TEST(AnalysisContext, ForeignStaOrderThrows) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library, 3);
  sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  ASSERT_EQ(timing.order.size(), g.design.instance_count());
  timing.order.pop_back();
  EXPECT_THROW((void)AnalysisContext::build(g.design, g.para, timing, Options{}),
               std::invalid_argument);
  timing.order.clear();
  EXPECT_THROW((void)analyze(g.design, g.para, timing, Options{}), std::invalid_argument);
}

TEST(AnalysisContext, DirtyRowPackMatchesFullPack) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library, 5);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options o;
  util::Executor exec(1);

  AnalysisContext full = AnalysisContext::build(g.design, g.para, timing, o);
  full.pack_scenarios(g.design, g.para, timing, o, nullptr, exec);
  ASSERT_TRUE(full.scenarios_packed());

  // Pack only every third row; those rows' slots must match the full pack
  // slot-for-slot (clean rows are never read, so their contents are free).
  std::vector<char> dirty(g.design.net_count(), 0);
  for (std::size_t vi = 0; vi < dirty.size(); vi += 3) dirty[vi] = 1;
  AnalysisContext partial = AnalysisContext::build(g.design, g.para, timing, o);
  partial.pack_scenarios(g.design, g.para, timing, o, &dirty, exec);

  for (std::size_t vi = 0; vi < dirty.size(); ++vi) {
    if (!dirty[vi]) continue;
    for (std::uint32_t s = full.agg_offsets[vi]; s < full.agg_offsets[vi + 1]; ++s) {
      EXPECT_EQ(partial.pair_slew[s], full.pair_slew[s]);
      EXPECT_EQ(partial.sc_r_hold[s], full.sc_r_hold[s]);
      EXPECT_EQ(partial.sc_c_ground[s], full.sc_c_ground[s]);
      EXPECT_EQ(partial.sc_c_couple[s], full.sc_c_couple[s]);
      EXPECT_EQ(partial.sc_slew[s], full.sc_slew[s]);
    }
  }
}

// ---------------------------------------------------------------------------
// Flat kernels vs their definitions
// ---------------------------------------------------------------------------

TEST(UnionFlat, MatchesIncrementalAddOnRandomSets) {
  std::mt19937 rng(2026);
  std::uniform_real_distribution<double> t0(-1.0, 1.0);
  std::uniform_real_distribution<double> len(-0.2, 0.5);  // negative = empty
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = rng() % 40;
    std::vector<Interval> members(n);
    IntervalSet reference;
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = t0(rng);
      members[i] = Interval{lo, lo + len(rng)};
      reference.add(members[i]);
    }
    const IntervalSet flat = kernels::union_flat(members);
    EXPECT_TRUE(flat == reference) << "trial " << trial;
  }
}

std::vector<Contribution> random_contributions(std::mt19937& rng, std::size_t n,
                                               bool with_propagated) {
  std::uniform_real_distribution<double> t0(0.0, 1e-9);
  std::uniform_real_distribution<double> len(10e-12, 400e-12);
  std::uniform_real_distribution<double> pk(0.02, 0.5);
  std::vector<Contribution> cs(n);
  for (std::size_t i = 0; i < n; ++i) {
    cs[i].peak = pk(rng);
    cs[i].width = len(rng);
    if (with_propagated && rng() % 4 == 0) {
      cs[i].aggressor = NetId{};  // propagated from fanin
      cs[i].from_net = NetId{i + 100};
    } else {
      cs[i].aggressor = NetId{i + 1};
    }
    IntervalSet w;
    const std::size_t pieces = 1 + rng() % 2;
    for (std::size_t p = 0; p < pieces; ++p) {
      const double lo = t0(rng);
      w.add(Interval{lo, lo + len(rng)});
    }
    cs[i].window = w;
  }
  return cs;
}

/// A per-item combine over the WeightedWindow scans: the no-filtering
/// short-circuit, restricted WeightedWindow items, the (grouped) scan, and
/// the active set's max width. combine_flat must match it to the bit.
Combined scalar_combine(std::span<const Contribution> cs, AnalysisMode mode,
                        const Interval& restrict_to, const Constraints& constraints) {
  Combined out;
  if (mode == AnalysisMode::kNoFiltering && constraints.empty()) {
    for (std::size_t i = 0; i < cs.size(); ++i) {
      out.peak += cs[i].peak;
      out.width = std::max(out.width, cs[i].width);
      out.active.push_back(i);
    }
    out.alignment = Interval::everything();
    return out;
  }
  std::vector<WeightedWindow> items;
  std::vector<int> groups;
  for (const Contribution& c : cs) {
    WeightedWindow ww;
    ww.weight = c.peak;
    const IntervalSet& win = mode == AnalysisMode::kNoFiltering
                                 ? IntervalSet::everything()
                                 : c.window;
    ww.window = restrict_to == Interval::everything() ? win
                                                      : win.intersect(restrict_to);
    items.push_back(std::move(ww));
    groups.push_back(c.aggressor.valid() ? constraints.group_of(c.aggressor) : -1);
  }
  const ScanResult scan = constraints.empty()
                              ? scan_max_overlap(items)
                              : ref::scan_max_overlap_grouped(items, groups);
  out.peak = scan.best_sum;
  out.alignment = scan.best_interval;
  out.active = scan.active;
  for (const std::size_t i : scan.active) out.width = std::max(out.width, cs[i].width);
  return out;
}

void expect_combined_eq(const Combined& a, const Combined& b) {
  EXPECT_EQ(a.peak, b.peak);
  EXPECT_EQ(a.width, b.width);
  EXPECT_TRUE(a.alignment == b.alignment);
  EXPECT_EQ(a.active, b.active);
}

TEST(CombineFlat, MatchesScalarScanAcrossViewsAndRestricts) {
  std::mt19937 rng(7);
  CombineScratch scratch;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng() % 24;
    const auto cs = random_contributions(rng, n, /*with_propagated=*/true);
    Constraints constraints;
    if (trial % 2 == 1 && n >= 4) {
      const NetId group[] = {NetId{1}, NetId{2}, NetId{3}};
      constraints.add_mutex_group(group);
    }
    const Interval restricts[] = {Interval::everything(),
                                  Interval{0.2e-9, 0.9e-9},
                                  Interval{1.0, 0.0} /* empty */};
    for (const Interval& r : restricts) {
      for (const AnalysisMode mode :
           {AnalysisMode::kNoFiltering, AnalysisMode::kNoiseWindows}) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        // kAll: every contribution, original indices.
        expect_combined_eq(
            combine_flat(cs, mode, r, constraints, CombineView::kAll, scratch),
            scalar_combine(cs, mode, r, constraints));
        // kInjectedOnly: the filtered-copy reference with compacted indices.
        std::vector<Contribution> injected;
        for (const Contribution& c : cs) {
          if (!c.is_propagated()) injected.push_back(c);
        }
        expect_combined_eq(combine_flat(cs, mode, r, constraints,
                                        CombineView::kInjectedOnly, scratch),
                           scalar_combine(injected, mode, r, constraints));
        // kPropagatedOpen: propagated members unconstrained, original indices.
        std::vector<Contribution> opened = {cs.begin(), cs.end()};
        for (Contribution& c : opened) {
          if (c.is_propagated()) c.window = IntervalSet(Interval::everything());
        }
        expect_combined_eq(combine_flat(cs, mode, r, constraints,
                                        CombineView::kPropagatedOpen, scratch),
                           scalar_combine(opened, mode, r, constraints));
      }
    }
  }
}

/// Brute-force oracle item: what a contribution offers (weight), its
/// width, the closed intervals where it exists, its mutex group (-1: none).
struct OracleItem {
  double weight, width;
  std::vector<Interval> window;
  int group;
};

/// The items a combination of `view` sees, straight from the definition:
/// no-filtering windows are `everything`, the propagated-open view widens
/// propagated windows to `everything`, and windows are clipped to
/// `restrict_to` — except that unconstrained no-filtering noise coincides
/// always. Propagated noise belongs to no group.
std::vector<OracleItem> oracle_items(std::span<const Contribution> cs, AnalysisMode mode,
                                     const Interval& restrict_to,
                                     const Constraints& constraints, CombineView view) {
  const bool coincide = mode == AnalysisMode::kNoFiltering && constraints.empty();
  std::vector<OracleItem> items;
  for (const Contribution& c : cs) {
    if (view == CombineView::kInjectedOnly && c.is_propagated()) continue;
    const bool open = mode == AnalysisMode::kNoFiltering ||
                      (view == CombineView::kPropagatedOpen && c.is_propagated());
    const IntervalSet window = open ? IntervalSet::everything() : c.window;
    OracleItem it{c.peak, c.width, {},
                  c.aggressor.valid() ? constraints.group_of(c.aggressor) : -1};
    for (const Interval& iv : window.intervals()) {
      const Interval clipped = coincide ? iv : iv.intersect(restrict_to);
      if (!clipped.is_empty()) it.window.push_back(clipped);
    }
    items.push_back(std::move(it));
  }
  return items;
}

/// Weight available at instant t: every item whose window contains t, but
/// only the heaviest such item of each group.
double oracle_sum_at(std::span<const OracleItem> items, double t) {
  double sum = 0.0;
  std::map<int, double> group_best;
  for (const OracleItem& it : items) {
    if (std::none_of(it.window.begin(), it.window.end(),
                     [t](const Interval& iv) { return iv.contains(t); })) {
      continue;
    }
    if (it.group < 0) {
      sum += it.weight;
    } else {
      group_best[it.group] = std::max(group_best[it.group], it.weight);
    }
  }
  for (const auto& [group, w] : group_best) sum += w;
  return sum;
}

/// The worst simultaneous sum: the largest weight available at any
/// window's left edge (availability only rises there).
double oracle_peak(std::span<const OracleItem> items) {
  double peak = 0.0;
  for (const OracleItem& it : items) {
    for (const Interval& iv : it.window) peak = std::max(peak, oracle_sum_at(items, iv.lo));
  }
  return peak;
}

/// Equal to 1e-12 relative: the oracle and the sweep sum in different orders.
bool near(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

/// A combination must reach the oracle's peak, its active members must sum
/// to it and set its width, and the middle of its alignment must reach it.
void expect_matches_oracle(double peak, double width, const Interval& alignment,
                           std::span<const std::size_t> active,
                           std::span<const OracleItem> items) {
  const double best = oracle_peak(items);
  EXPECT_TRUE(near(peak, best)) << peak << " vs oracle " << best;
  double active_sum = 0.0;
  double active_width = 0.0;
  for (const std::size_t i : active) {
    ASSERT_LT(i, items.size());
    active_sum += items[i].weight;
    active_width = std::max(active_width, items[i].width);
  }
  EXPECT_TRUE(near(active_sum, best)) << active_sum << " vs oracle " << best;
  EXPECT_EQ(width, active_width);
  if (best > 0.0) {
    EXPECT_TRUE(near(oracle_sum_at(items, 0.5 * (alignment.lo + alignment.hi)), best))
        << "alignment [" << alignment.lo << ", " << alignment.hi << "]";
  }
}

TEST(CombineFlat, MatchesBruteForceOracle) {
  std::mt19937 rng(11);
  CombineScratch scratch;
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = 1 + rng() % 16;
    const auto cs = random_contributions(rng, n, /*with_propagated=*/true);
    Constraints constraints;
    if (trial % 2 == 1 && n >= 5) {
      const NetId a[] = {NetId{1}, NetId{2}, NetId{3}};
      const NetId b[] = {NetId{4}, NetId{5}};
      constraints.add_mutex_group(a);
      constraints.add_mutex_group(b);
    }
    for (const Interval& r : {Interval::everything(), Interval{0.2e-9, 0.9e-9},
                              Interval{0.5e-9, 0.5e-9}, Interval{1.0, 0.0}}) {
      for (const AnalysisMode mode : {AnalysisMode::kNoFiltering,
                                      AnalysisMode::kSwitchingWindows,
                                      AnalysisMode::kNoiseWindows}) {
        for (const CombineView view : {CombineView::kAll, CombineView::kInjectedOnly,
                                       CombineView::kPropagatedOpen}) {
          SCOPED_TRACE("trial " + std::to_string(trial) + " " + to_string(mode) + " view " +
                       std::to_string(static_cast<int>(view)) + " lo " + std::to_string(r.lo));
          const Combined c = combine_flat(cs, mode, r, constraints, view, scratch);
          expect_matches_oracle(c.peak, c.width, c.alignment, c.active,
                                oracle_items(cs, mode, r, constraints, view));
        }
      }
    }
  }
}

/// Per net: total and injected peaks are the oracle's over the net's own
/// contributions, and its window is their union. Without refinement each
/// injected contribution is also its pair's estimate — slew = STA's fastest
/// transition (else the default) floored at 1 ps, below-kMinPeak glitches
/// and never-switching aggressors dropped — with window [first switching
/// edge, last + peak delay + width].
TEST(FlatPathOracle, RandomDesignsMatchDefinitions) {
  const lib::Library library = lib::default_library();
  const std::pair<AnalysisMode, int> mode_refine[] = {
      {AnalysisMode::kNoFiltering, 0}, {AnalysisMode::kSwitchingWindows, 0},
      {AnalysisMode::kNoiseWindows, 0}, {AnalysisMode::kSwitchingWindows, 2},
      {AnalysisMode::kNoiseWindows, 2}};
  for (const std::size_t seed : {7u, 23u}) {
    for (const bool logic : {false, true}) {
      const gen::Generated g = logic ? logic_case(library, seed) : bus_case(library, seed);
      const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
      Options o;
      o.clock_period = g.sta_options.clock_period;
      ASSERT_EQ(o.model, GlitchModel::kTwoPi);  // the pair estimates below
      // Bus runs exercise the grouped scan: mutually exclusive neighbours.
      for (std::size_t b = 0; !logic && b + 2 < g.design.net_count(); b += 9) {
        const NetId group[] = {NetId{b}, NetId{b + 1}, NetId{b + 2}};
        o.constraints.add_mutex_group(group);
      }
      const AnalysisContext ctx = AnalysisContext::build(g.design, g.para, timing, o);
      for (const auto& [mode, refine] : mode_refine) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " logic=" + std::to_string(logic) +
                     " " + to_string(mode) + " refine=" + std::to_string(refine));
        o.mode = mode;
        o.refine_iterations = refine;
        const Result r = analyze(g.design, g.para, timing, o);
        for (std::size_t vi = 0; vi < r.nets.size(); ++vi) {
          SCOPED_TRACE("net " + std::to_string(vi));
          const NetNoise& nn = r.nets[vi];
          const std::span<const Contribution> cs = nn.contributions;
          std::vector<std::size_t> in_worst;
          IntervalSet window;
          for (std::size_t i = 0; i < cs.size(); ++i) {
            if (cs[i].in_worst) in_worst.push_back(i);
            for (const Interval& iv : cs[i].window.intervals()) window.add(iv);
          }
          expect_matches_oracle(nn.total_peak, nn.width, nn.worst_alignment, in_worst,
                                oracle_items(cs, o.mode, Interval::everything(),
                                             o.constraints, CombineView::kAll));
          EXPECT_TRUE(near(nn.injected_peak,
                           oracle_peak(oracle_items(cs, o.mode, Interval::everything(),
                                                    o.constraints,
                                                    CombineView::kInjectedOnly))));
          EXPECT_TRUE(nn.window == (o.mode == AnalysisMode::kNoFiltering
                                        ? IntervalSet::everything()
                                        : window));
          if (refine > 0) continue;
          EXPECT_EQ(nn.aggressor_count, ctx.agg_offsets[vi + 1] - ctx.agg_offsets[vi]);
          std::size_t k = 0;
          std::size_t filtered = 0;
          for (std::uint32_t slot = ctx.agg_offsets[vi]; slot < ctx.agg_offsets[vi + 1];
               ++slot) {
            const NetId agg = ctx.agg_net[slot];
            const double fastest = timing.nets[agg.index()].slew_min;
            const double slew = std::max(fastest > 0.0 ? fastest : kDefaultSlew, 1e-12);
            const GlitchEstimate e = estimate_two_pi(
                scenario_for(g.design, g.para, NetId{vi}, agg, slew, ctx.vdd));
            if (e.peak < kMinPeak) continue;
            const bool filtering = o.mode != AnalysisMode::kNoFiltering;
            const Interval sw{ctx.switch_lo[agg.index()], ctx.switch_hi[agg.index()]};
            filtered += filtering && sw.is_empty();
            if (filtering && sw.is_empty()) continue;
            ASSERT_LT(k, cs.size());
            const Contribution& c = cs[k++];
            EXPECT_EQ(c.aggressor, agg);
            EXPECT_EQ(c.peak, e.peak);
            EXPECT_EQ(c.width, e.width);
            const Interval expected =
                filtering ? sw.dilated(0.0, e.peak_delay + e.width) : Interval::everything();
            EXPECT_TRUE(c.window == IntervalSet(expected));
          }
          EXPECT_EQ(nn.filtered_temporal, filtered);
          // Everything after the injected contributions came through the driver.
          for (; k < cs.size(); ++k) EXPECT_TRUE(cs[k].is_propagated());
        }
      }
    }
  }
}

}  // namespace
}  // namespace nw::noise
