// Victim-cluster extraction: structure, quiet-neighbour grounding,
// end-to-end glitch behaviour.
#include <gtest/gtest.h>

#include "gen/bus.hpp"
#include "library/library.hpp"
#include "spice/cluster.hpp"
#include "spice/transient.hpp"
#include "util/units.hpp"

namespace nw::spice {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  lib::Library library_ = lib::default_library();
  gen::Generated bus_ = [this] {
    gen::BusConfig cfg;
    cfg.bits = 6;
    cfg.segments = 3;
    return gen::make_bus(library_, cfg);
  }();
};

TEST_F(ClusterTest, BuildsVictimAndAggressors) {
  ClusterSpec spec;
  spec.victim = *bus_.design.find_net("w2");
  spec.aggressors.push_back({*bus_.design.find_net("w1"), 0.0, 20 * PS, true});
  spec.aggressors.push_back({*bus_.design.find_net("w3"), 50 * PS, 20 * PS, false});
  const Cluster cl = build_cluster(bus_.design, bus_.para, spec);

  // Victim nodes map 1:1 with its RC nodes.
  EXPECT_EQ(cl.victim_nodes.size(), bus_.para.net(spec.victim).node_count());
  // Two aggressor PWL sources.
  EXPECT_EQ(cl.circuit.vsources().size(), 2u);
  // Probe is the far-end node, not the root.
  EXPECT_NE(cl.victim_probe, cl.victim_nodes[0]);
}

TEST_F(ClusterTest, ValidationErrors) {
  ClusterSpec spec;
  spec.victim = *bus_.design.find_net("w2");
  spec.aggressors.push_back({spec.victim, 0.0, 20 * PS, true});
  EXPECT_THROW((void)build_cluster(bus_.design, bus_.para, spec), std::invalid_argument);
  spec.aggressors[0].net = *bus_.design.find_net("w1");
  spec.aggressors.push_back({*bus_.design.find_net("w1"), 0.0, 20 * PS, true});
  EXPECT_THROW((void)build_cluster(bus_.design, bus_.para, spec), std::invalid_argument);
}

TEST_F(ClusterTest, QuietNeighboursGrounded) {
  // Cluster with only one aggressor: w2 also couples to w3/w4/w0 which are
  // outside the cluster, so their caps must appear as grounded caps.
  ClusterSpec one;
  one.victim = *bus_.design.find_net("w2");
  one.aggressors.push_back({*bus_.design.find_net("w1"), 0.0, 20 * PS, true});
  const Cluster cl = build_cluster(bus_.design, bus_.para, one);
  // Count caps with one terminal at ground: must include the victim's
  // couplings to w0/w3/w4 (3 segments each for w3 and 2nd-neighbours).
  std::size_t grounded = 0;
  for (const auto& c : cl.circuit.capacitors()) grounded += (c.a == 0 || c.b == 0);
  EXPECT_GT(grounded, 6u);
}

TEST_F(ClusterTest, TwoAggressorsSuperpose) {
  const NetId victim = *bus_.design.find_net("w2");
  const NetId a1 = *bus_.design.find_net("w1");
  const NetId a2 = *bus_.design.find_net("w3");
  const TranOptions tran{1.5 * NS, 0.5 * PS};

  auto run_peak = [&](std::vector<AggressorExcitation> aggs) {
    ClusterSpec spec;
    spec.victim = victim;
    spec.aggressors = std::move(aggs);
    const Cluster cl = build_cluster(bus_.design, bus_.para, spec);
    const TransientResult r = simulate(cl.circuit, tran);
    return measure_glitch(r.waveform(cl.victim_probe), 0.0).peak;
  };

  const double p1 = run_peak({{a1, 100 * PS, 20 * PS, true}});
  const double p2 = run_peak({{a2, 100 * PS, 20 * PS, true}});
  const double aligned = run_peak({{a1, 100 * PS, 20 * PS, true},
                                   {a2, 100 * PS, 20 * PS, true}});
  const double apart = run_peak({{a1, 100 * PS, 20 * PS, true},
                                 {a2, 700 * PS, 20 * PS, true}});
  // Aligned aggressors nearly superpose (linear network).
  EXPECT_NEAR(aligned, p1 + p2, 0.1 * (p1 + p2));
  // Separated in time, the combined peak collapses to the worst single one.
  EXPECT_LT(apart, 1.15 * std::max(p1, p2));
  EXPECT_GT(aligned, 1.5 * std::max(p1, p2));
}

TEST_F(ClusterTest, DriverResistanceLookup) {
  // Port-driven nets use the port drive resistance.
  const NetId w0 = *bus_.design.find_net("w0");
  EXPECT_DOUBLE_EQ(driver_resistance(bus_.design, w0, false), 500.0);
  // Gate-driven nets use the cell's drive/holding resistance.
  const NetId r0 = *bus_.design.find_net("r0_0");
  const double drv = driver_resistance(bus_.design, r0, false);
  const double hold = driver_resistance(bus_.design, r0, true);
  EXPECT_DOUBLE_EQ(drv, library_.cell(library_.find("INV_X1").value()).drive_resistance);
  EXPECT_GT(hold, drv);
}

}  // namespace
}  // namespace nw::spice
