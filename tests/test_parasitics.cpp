// RC nets, coupling storage, Elmore, moments, pi model.
#include <gtest/gtest.h>

#include <cmath>

#include "parasitics/rcnet.hpp"
#include "parasitics/reduce.hpp"

namespace nw::para {
namespace {

TEST(RcNet, BuildAndTotals) {
  RcNet rc;
  EXPECT_EQ(rc.node_count(), 1u);  // root exists
  const auto n1 = rc.add_node(2e-15);
  const auto n2 = rc.add_node(3e-15);
  rc.add_res(0, n1, 10.0);
  rc.add_res(n1, n2, 20.0);
  rc.add_cap(0, 1e-15);
  EXPECT_EQ(rc.node_count(), 3u);
  EXPECT_EQ(rc.res_count(), 2u);
  EXPECT_DOUBLE_EQ(rc.total_ground_cap(), 6e-15);
  EXPECT_DOUBLE_EQ(rc.total_res(), 30.0);
  EXPECT_TRUE(rc.is_tree());
}

TEST(RcNet, Validation) {
  RcNet rc;
  const auto n1 = rc.add_node();
  EXPECT_THROW(rc.add_res(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(rc.add_res(0, 9, 1.0), std::out_of_range);
  EXPECT_THROW(rc.add_res(0, n1, -1.0), std::invalid_argument);
  rc.attach_pin(n1, PinId{0});
  EXPECT_THROW(rc.attach_pin(n1, PinId{1}), std::invalid_argument);
  EXPECT_EQ(rc.node_of_pin(PinId{0}), n1);
  EXPECT_EQ(rc.node_of_pin(PinId{9}), rc.node_count());
}

TEST(RcNet, RejectsNonFiniteValues) {
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  RcNet rc;
  const auto n1 = rc.add_node();
  EXPECT_THROW(rc.add_res(0, n1, nan), std::invalid_argument);
  EXPECT_THROW(rc.add_res(0, n1, inf), std::invalid_argument);
  EXPECT_THROW(rc.add_cap(n1, nan), std::invalid_argument);
  EXPECT_THROW(rc.add_cap(n1, inf), std::invalid_argument);
  EXPECT_THROW(rc.add_cap(n1, -1e-15), std::invalid_argument);
  rc.add_cap(n1, 0.0);  // zero is a valid (absent) cap
  rc.add_res(0, n1, 10.0);
  rc.add_cap(n1, 1e-15);
  EXPECT_THROW(rc.scale(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(rc.scale(1.0, nan), std::invalid_argument);
  EXPECT_THROW(rc.scale(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(rc.scale(1.0, 0.0), std::invalid_argument);
  // A rejected value leaves the net unchanged.
  EXPECT_EQ(rc.res_count(), 1u);
  EXPECT_DOUBLE_EQ(rc.total_ground_cap(), 1e-15);
  EXPECT_DOUBLE_EQ(rc.total_res(), 10.0);
}

TEST(RcNet, TreeDetection) {
  RcNet rc;
  const auto n1 = rc.add_node();
  const auto n2 = rc.add_node();
  rc.add_res(0, n1, 1.0);
  EXPECT_FALSE(rc.is_tree());  // n2 disconnected
  rc.add_res(n1, n2, 1.0);
  EXPECT_TRUE(rc.is_tree());
  rc.add_res(0, n2, 1.0);
  EXPECT_FALSE(rc.is_tree());  // now a cycle
}

TEST(RcNet, Lumped) {
  const RcNet rc = RcNet::lumped(5e-15);
  EXPECT_EQ(rc.node_count(), 1u);
  EXPECT_DOUBLE_EQ(rc.total_ground_cap(), 5e-15);
  EXPECT_TRUE(rc.is_tree());
}

TEST(Parasitics, CouplingBookkeeping) {
  Parasitics p(3);
  p.net(NetId{0}).add_node(1e-15);
  p.net(NetId{1}).add_node(1e-15);
  const auto idx = p.add_coupling(NetId{0}, 1, NetId{1}, 1, 2e-15);
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(p.couplings_of(NetId{0}).size(), 1u);
  EXPECT_EQ(p.couplings_of(NetId{1}).size(), 1u);
  EXPECT_EQ(p.couplings_of(NetId{2}).size(), 0u);
  const CouplingCap& cc = p.coupling(idx);
  EXPECT_EQ(cc.other_net(NetId{0}), NetId{1});
  EXPECT_EQ(cc.other_net(NetId{1}), NetId{0});
  EXPECT_EQ(cc.node_on(NetId{0}), 1u);
  EXPECT_DOUBLE_EQ(p.coupling_cap_of(NetId{0}), 2e-15);
  EXPECT_DOUBLE_EQ(p.total_cap(NetId{0}, 1.0), 3e-15);
  EXPECT_DOUBLE_EQ(p.total_cap(NetId{0}, 2.0), 5e-15);
}

TEST(Parasitics, CouplingValidation) {
  Parasitics p(2);
  EXPECT_THROW(p.add_coupling(NetId{0}, 0, NetId{0}, 0, 1e-15), std::invalid_argument);
  EXPECT_THROW(p.add_coupling(NetId{0}, 5, NetId{1}, 0, 1e-15), std::out_of_range);
  EXPECT_THROW(p.add_coupling(NetId{0}, 0, NetId{1}, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(p.add_coupling(NetId{0}, 0, NetId{1}, 0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(p.add_coupling(NetId{0}, 0, NetId{1}, 0, HUGE_VAL), std::invalid_argument);
  const std::size_t ci = p.add_coupling(NetId{0}, 0, NetId{1}, 0, 1e-15);
  EXPECT_THROW(p.set_coupling_value(ci, std::nan("")), std::invalid_argument);
  EXPECT_THROW(p.set_coupling_value(ci, HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(p.set_coupling_value(ci, -1e-15), std::invalid_argument);
  EXPECT_DOUBLE_EQ(p.coupling(ci).c, 1e-15);
}

TEST(Elmore, SingleSegment) {
  // R to a single cap: delay = R*C.
  RcNet rc;
  const auto n1 = rc.add_node(1e-12);
  rc.add_res(0, n1, 1000.0);
  const auto d = elmore_delays(rc);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[n1], 1e-9);
}

TEST(Elmore, LadderMatchesHandComputation) {
  // Two-segment ladder: R1=100 to n1 (C1=1f), R2=200 to n2 (C2=2f).
  // delay(n1) = R1*(C1+C2) = 100*3f = 300fs
  // delay(n2) = delay(n1) + R2*C2 = 300fs + 400fs = 700fs.
  RcNet rc;
  const auto n1 = rc.add_node(1e-15);
  const auto n2 = rc.add_node(2e-15);
  rc.add_res(0, n1, 100.0);
  rc.add_res(n1, n2, 200.0);
  const auto d = elmore_delays(rc);
  EXPECT_NEAR(d[n1], 300e-15, 1e-20);
  EXPECT_NEAR(d[n2], 700e-15, 1e-20);
}

TEST(Elmore, BranchingTree) {
  // Root -R1- n1, then n1 branches to n2 and n3.
  RcNet rc;
  const auto n1 = rc.add_node(1e-15);
  const auto n2 = rc.add_node(2e-15);
  const auto n3 = rc.add_node(3e-15);
  rc.add_res(0, n1, 100.0);
  rc.add_res(n1, n2, 50.0);
  rc.add_res(n1, n3, 80.0);
  const auto d = elmore_delays(rc);
  EXPECT_NEAR(d[n1], 100.0 * 6e-15, 1e-20);
  EXPECT_NEAR(d[n2], 100.0 * 6e-15 + 50.0 * 2e-15, 1e-20);
  EXPECT_NEAR(d[n3], 100.0 * 6e-15 + 80.0 * 3e-15, 1e-20);
}

TEST(Elmore, ExtraCapShiftsDelay) {
  RcNet rc;
  const auto n1 = rc.add_node(1e-15);
  rc.add_res(0, n1, 100.0);
  const std::vector<double> extra{0.0, 4e-15};
  const auto d = elmore_delays(rc, extra);
  EXPECT_NEAR(d[n1], 100.0 * 5e-15, 1e-20);
}

TEST(Elmore, NonTreeThrows) {
  RcNet rc;
  const auto n1 = rc.add_node(1e-15);
  const auto n2 = rc.add_node(1e-15);
  rc.add_res(0, n1, 1.0);
  rc.add_res(n1, n2, 1.0);
  rc.add_res(0, n2, 1.0);
  EXPECT_THROW((void)elmore_delays(rc), std::invalid_argument);
  RcNet rc2;
  rc2.add_node(1e-15);
  EXPECT_THROW((void)elmore_delays(rc2), std::invalid_argument);  // disconnected
}

TEST(Moments, SingleNodeIsPureCap) {
  const RcNet rc = RcNet::lumped(3e-15);
  const AdmittanceMoments m = admittance_moments(rc);
  EXPECT_DOUBLE_EQ(m.m1, 3e-15);
  EXPECT_DOUBLE_EQ(m.m2, 0.0);
  const PiModel pi = pi_model(rc);
  EXPECT_DOUBLE_EQ(pi.c_near, 3e-15);
  EXPECT_DOUBLE_EQ(pi.r, 0.0);
}

TEST(Moments, SignPattern) {
  RcNet rc;
  const auto n1 = rc.add_node(2e-15);
  const auto n2 = rc.add_node(2e-15);
  rc.add_res(0, n1, 100.0);
  rc.add_res(n1, n2, 100.0);
  const AdmittanceMoments m = admittance_moments(rc);
  EXPECT_GT(m.m1, 0.0);
  EXPECT_LT(m.m2, 0.0);
  EXPECT_GT(m.m3, 0.0);
}

TEST(PiModel, PreservesTotalCapAndPositivity) {
  RcNet rc;
  std::uint32_t prev = 0;
  for (int i = 0; i < 6; ++i) {
    const auto n = rc.add_node(1.5e-15);
    rc.add_res(prev, n, 60.0);
    prev = n;
  }
  const PiModel pi = pi_model(rc);
  EXPECT_GT(pi.c_near, 0.0);
  EXPECT_GT(pi.c_far, 0.0);
  EXPECT_GT(pi.r, 0.0);
  EXPECT_NEAR(pi.total_cap(), rc.total_ground_cap(), 1e-20);
}

TEST(PiModel, MatchesMomentsExactly) {
  // The pi model must reproduce the first three moments of the tree.
  RcNet rc;
  const auto n1 = rc.add_node(3e-15);
  const auto n2 = rc.add_node(1e-15);
  rc.add_res(0, n1, 120.0);
  rc.add_res(n1, n2, 240.0);
  const AdmittanceMoments m = admittance_moments(rc);
  const PiModel pi = pi_model(rc);
  // Moments of the pi circuit: m1 = c1 + c2, m2 = -c2^2 r, m3 = c2^3 r^2.
  EXPECT_NEAR(pi.c_near + pi.c_far, m.m1, 1e-22);
  EXPECT_NEAR(-pi.c_far * pi.c_far * pi.r, m.m2, std::abs(m.m2) * 1e-9);
  EXPECT_NEAR(pi.c_far * pi.c_far * pi.c_far * pi.r * pi.r, m.m3,
              std::abs(m.m3) * 1e-9);
}

}  // namespace
}  // namespace nw::para
