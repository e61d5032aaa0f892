// Grouped scan line + logic-constraint filtering in the analyzer. The
// grouped scan runs the analyzer's core through ref::scan_max_overlap_grouped.
#include <gtest/gtest.h>

#include "gen/bus.hpp"
#include "noise/analyzer.hpp"
#include "noise/constraints.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"
#include "util/scan_ref.hpp"
#include "util/scanline.hpp"
#include "util/units.hpp"

namespace nw {
namespace {

TEST(GroupedScan, SingletonGroupsMatchPlainScan) {
  const std::vector<WeightedWindow> items{
      {1.0, IntervalSet{{0, 10}}},
      {2.0, IntervalSet{{5, 15}}},
      {4.0, IntervalSet{{8, 9}}},
  };
  const std::vector<int> groups{-1, -1, -1};
  const ScanResult grouped = ref::scan_max_overlap_grouped(items, groups);
  const ScanResult plain = scan_max_overlap(items);
  EXPECT_DOUBLE_EQ(grouped.best_sum, plain.best_sum);
}

TEST(GroupedScan, MutexPicksHeaviestPerGroup) {
  // Two complementary phases (group 0) overlapping in time: only the
  // heavier one counts; the independent item adds on top.
  const std::vector<WeightedWindow> items{
      {3.0, IntervalSet{{0, 10}}},
      {5.0, IntervalSet{{0, 10}}},
      {2.0, IntervalSet{{0, 10}}},
  };
  const std::vector<int> groups{0, 0, -1};
  const ScanResult r = ref::scan_max_overlap_grouped(items, groups);
  EXPECT_DOUBLE_EQ(r.best_sum, 7.0);  // 5 (heaviest of group) + 2
  // Active set reports the heaviest group member plus the free item.
  ASSERT_EQ(r.active.size(), 2u);
  EXPECT_EQ(r.active[0], 1u);
  EXPECT_EQ(r.active[1], 2u);
}

TEST(GroupedScan, GroupMembersInDisjointWindowsBothUsable) {
  // Mutex only bites when members temporally overlap; at any single time
  // point only one is active anyway.
  const std::vector<WeightedWindow> items{
      {3.0, IntervalSet{{0, 1}}},
      {5.0, IntervalSet{{5, 6}}},
  };
  const std::vector<int> groups{0, 0};
  const ScanResult r = ref::scan_max_overlap_grouped(items, groups);
  EXPECT_DOUBLE_EQ(r.best_sum, 5.0);
}

TEST(GroupedScan, SizeMismatchThrows) {
  const std::vector<WeightedWindow> items{{1.0, IntervalSet{{0, 1}}}};
  const std::vector<int> groups{0, 1};
  EXPECT_THROW((void)ref::scan_max_overlap_grouped(items, groups), std::invalid_argument);
}

/// Property: grouped scan == grouped brute force, and grouped <= plain.
class GroupedRandom : public ::testing::TestWithParam<int> {};

TEST_P(GroupedRandom, MatchesBruteForceAndBoundsPlain) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 8191 + 77);
  const int k = 2 + static_cast<int>(rng.below(8));
  std::vector<WeightedWindow> items;
  std::vector<int> groups;
  for (int i = 0; i < k; ++i) {
    WeightedWindow ww;
    ww.weight = rng.uniform(0.1, 5.0);
    const double lo = rng.uniform(0.0, 50.0);
    ww.window.add({lo, lo + rng.uniform(1.0, 30.0)});
    if (rng.chance(0.4)) ww.window.add({lo + 60.0, lo + 70.0});
    items.push_back(std::move(ww));
    groups.push_back(rng.chance(0.6) ? static_cast<int>(rng.below(3)) : -1);
  }
  const ScanResult fast = ref::scan_max_overlap_grouped(items, groups);
  const ScanResult slow = ref::brute_force_max_overlap_grouped(items, groups);
  EXPECT_NEAR(fast.best_sum, slow.best_sum, 1e-12);
  EXPECT_LE(fast.best_sum, scan_max_overlap(items).best_sum + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedRandom, ::testing::Range(0, 30));

TEST(Constraints, GroupBookkeeping) {
  noise::Constraints c;
  EXPECT_TRUE(c.empty());
  const std::vector<NetId> g0{NetId{1}, NetId{2}};
  const std::vector<NetId> g1{NetId{5}};
  EXPECT_EQ(c.add_mutex_group(g0), 0);
  EXPECT_EQ(c.add_mutex_group(g1), 1);
  EXPECT_EQ(c.entries(),
            (std::vector<std::pair<NetId::value_type, int>>{{1, 0}, {2, 0}, {5, 1}}));
  EXPECT_EQ(c.group_of(NetId{1}), 0);
  EXPECT_EQ(c.group_of(NetId{2}), 0);
  EXPECT_EQ(c.group_of(NetId{5}), 1);
  EXPECT_EQ(c.group_of(NetId{9}), -1);
  // A net cannot join two groups.
  const std::vector<NetId> dup{NetId{2}};
  EXPECT_THROW((void)c.add_mutex_group(dup), std::invalid_argument);
}

TEST(Constraints, MutexAggressorsReduceBusNoise) {
  // On an unstaggered bus both neighbours of w2 normally combine; declaring
  // them mutually exclusive must drop the combined peak to the heavier one.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 8;
  cfg.stagger_groups = 1;  // fully overlapping windows
  const gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  const NetId victim = *g.design.find_net("w2");
  const NetId left = *g.design.find_net("w1");
  const NetId right = *g.design.find_net("w3");

  noise::Options plain;
  plain.clock_period = g.sta_options.clock_period;
  const noise::Result r_plain = noise::analyze(g.design, g.para, timing, plain);

  noise::Options constrained = plain;
  const std::vector<NetId> group{left, right};
  constrained.constraints.add_mutex_group(group);
  const noise::Result r_con = noise::analyze(g.design, g.para, timing, constrained);

  EXPECT_LT(r_con.net(victim).total_peak, r_plain.net(victim).total_peak - 1e-6);
  // The constrained result never exceeds the unconstrained one anywhere.
  for (std::size_t i = 0; i < g.design.net_count(); ++i) {
    EXPECT_LE(r_con.nets[i].total_peak, r_plain.nets[i].total_peak + 1e-12);
  }
}

TEST(Constraints, ApplyInNoFilteringModeToo) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 6;
  const gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  const NetId victim = *g.design.find_net("w2");

  noise::Options o;
  o.mode = noise::AnalysisMode::kNoFiltering;
  o.clock_period = g.sta_options.clock_period;
  const double before = noise::analyze(g.design, g.para, timing, o).net(victim).total_peak;
  const std::vector<NetId> grp{*g.design.find_net("w1"), *g.design.find_net("w3")};
  o.constraints.add_mutex_group(grp);
  const double after = noise::analyze(g.design, g.para, timing, o).net(victim).total_peak;
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace nw
