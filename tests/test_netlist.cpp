// Design construction, connectivity, lint, topological order.
#include <gtest/gtest.h>

#include "library/library.hpp"
#include "netlist/design.hpp"

namespace nw::net {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  lib::Library library_ = lib::default_library();
};

TEST_F(NetlistTest, BuildSimpleChain) {
  Design d(library_, "chain");
  const NetId a = d.add_net("a");
  const NetId b = d.add_net("b");
  const NetId c = d.add_net("c");
  d.add_input_port("in", a);
  const InstId g1 = d.add_instance("g1", "INV_X1");
  const InstId g2 = d.add_instance("g2", "BUF_X1");
  d.connect(g1, "A", a);
  d.connect(g1, "Y", b);
  d.connect(g2, "A", b);
  d.connect(g2, "Y", c);
  d.add_output_port("out", c);

  EXPECT_EQ(d.net_count(), 3u);
  EXPECT_EQ(d.instance_count(), 2u);
  EXPECT_TRUE(d.lint().empty());

  // Net b: driven by g1/Y, loaded by g2/A.
  const Net& nb = d.net(b);
  EXPECT_EQ(d.pin_name(nb.driver), "g1/Y");
  ASSERT_EQ(nb.loads.size(), 1u);
  EXPECT_EQ(d.pin_name(nb.loads[0]), "g2/A");
  EXPECT_GT(d.pin_cap(nb.loads[0]), 0.0);
  EXPECT_DOUBLE_EQ(d.pin_cap(nb.driver), 0.0);
}

TEST_F(NetlistTest, DuplicateNamesThrow) {
  Design d(library_);
  d.add_net("n");
  EXPECT_THROW(d.add_net("n"), std::invalid_argument);
  d.add_instance("i", "INV_X1");
  EXPECT_THROW(d.add_instance("i", "BUF_X1"), std::invalid_argument);
  EXPECT_THROW(d.add_instance("j", "NO_SUCH_CELL"), std::invalid_argument);
}

TEST_F(NetlistTest, DoubleDriverThrows) {
  Design d(library_);
  const NetId n = d.add_net("n");
  const InstId g1 = d.add_instance("g1", "INV_X1");
  const InstId g2 = d.add_instance("g2", "INV_X1");
  d.connect(g1, "Y", n);
  EXPECT_THROW(d.connect(g2, "Y", n), std::invalid_argument);
  EXPECT_THROW(d.add_input_port("p", n), std::invalid_argument);
}

TEST_F(NetlistTest, DoubleConnectThrows) {
  Design d(library_);
  const NetId n1 = d.add_net("n1");
  const NetId n2 = d.add_net("n2");
  const InstId g = d.add_instance("g", "INV_X1");
  d.connect(g, "A", n1);
  EXPECT_THROW(d.connect(g, "A", n2), std::invalid_argument);
  EXPECT_THROW(d.connect(g, "Q", n2), std::invalid_argument);  // no such pin
}

TEST_F(NetlistTest, LintFindsProblems) {
  Design d(library_);
  const NetId undriven = d.add_net("u");
  d.add_output_port("o", undriven);
  const NetId unloaded = d.add_net("l");
  d.add_input_port("i", unloaded);
  d.add_instance("g", "INV_X1");  // both pins unconnected
  const auto problems = d.lint();
  EXPECT_EQ(problems.size(), 4u);  // 2 pins + undriven + unloaded
}

TEST_F(NetlistTest, FindByName) {
  Design d(library_);
  const NetId n = d.add_net("mynet");
  const InstId i = d.add_instance("myinst", "BUF_X1");
  EXPECT_EQ(d.find_net("mynet"), n);
  EXPECT_EQ(d.find_instance("myinst"), i);
  EXPECT_FALSE(d.find_net("nope").has_value());
  EXPECT_FALSE(d.find_instance("nope").has_value());
}

TEST_F(NetlistTest, FindByStringViewSlice) {
  Design d(library_);
  const NetId n = d.add_net("mynet");
  const InstId i = d.add_instance("myinst", "BUF_X1");
  // Slices of a longer line: neither is NUL-terminated at its end.
  const std::string line = "inst myinst BUF_X1 A=mynet_tail";
  const std::string_view view(line);
  EXPECT_EQ(d.find_instance(view.substr(5, 6)), i);
  EXPECT_EQ(d.find_net(view.substr(21, 5)), n);
  EXPECT_FALSE(d.find_net(view.substr(21)).has_value());  // "mynet_tail"
  EXPECT_FALSE(d.find_instance(view.substr(5, 5)).has_value());  // "myins"
}

TEST_F(NetlistTest, FindPort) {
  Design d(library_);
  const NetId a = d.add_net("a");
  const NetId y = d.add_net("y");
  const PinId in = d.add_input_port("in", a);
  const PinId out = d.add_output_port("out", y);
  EXPECT_EQ(d.find_port("in"), in);
  EXPECT_EQ(d.find_port("out"), out);
  EXPECT_FALSE(d.find_port("a").has_value());  // a net, not a port
  EXPECT_FALSE(d.find_port("nope").has_value());
  const std::string line = "out in";
  EXPECT_EQ(d.find_port(std::string_view(line).substr(0, 3)), out);
}

TEST_F(NetlistTest, DuplicatePortNamesThrow) {
  Design d(library_);
  const NetId a = d.add_net("a");
  const NetId b = d.add_net("b");
  const NetId c = d.add_net("c");
  const PinId in = d.add_input_port("p", a);
  EXPECT_THROW(d.add_input_port("p", b), std::invalid_argument);
  EXPECT_THROW(d.add_output_port("p", c), std::invalid_argument);
  // A rejected port leaves the design untouched.
  EXPECT_EQ(d.pin_count(), 1u);
  EXPECT_FALSE(d.net(b).driver.valid());
  EXPECT_TRUE(d.net(c).loads.empty());
  EXPECT_EQ(d.find_port("p"), in);
}

TEST_F(NetlistTest, PortDriveAccess) {
  Design d(library_);
  const NetId n = d.add_net("n");
  PortDrive pd;
  pd.resistance = 777.0;
  pd.slew = 5e-12;
  const PinId p = d.add_input_port("in", n, pd);
  EXPECT_DOUBLE_EQ(d.port_drive(p).resistance, 777.0);
  const InstId g = d.add_instance("g", "INV_X1");
  d.connect(g, "A", n);
  const PinId gp = d.instance(g).pins[0];
  EXPECT_THROW((void)d.port_drive(gp), std::invalid_argument);
}

TEST_F(NetlistTest, TopologicalOrderRespectsDependencies) {
  Design d(library_);
  // in -> g1 -> g2 -> g3 -> out; build out of order.
  const NetId n0 = d.add_net("n0");
  const NetId n1 = d.add_net("n1");
  const NetId n2 = d.add_net("n2");
  const NetId n3 = d.add_net("n3");
  const InstId g3 = d.add_instance("g3", "INV_X1");
  const InstId g1 = d.add_instance("g1", "INV_X1");
  const InstId g2 = d.add_instance("g2", "INV_X1");
  d.add_input_port("in", n0);
  d.connect(g1, "A", n0);
  d.connect(g1, "Y", n1);
  d.connect(g2, "A", n1);
  d.connect(g2, "Y", n2);
  d.connect(g3, "A", n2);
  d.connect(g3, "Y", n3);
  d.add_output_port("out", n3);

  const auto order = d.topological_order();
  ASSERT_EQ(order.size(), 3u);
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i].index()] = i;
  EXPECT_LT(pos[g1.index()], pos[g2.index()]);
  EXPECT_LT(pos[g2.index()], pos[g3.index()]);
}

TEST_F(NetlistTest, SequentialBreaksLoops) {
  Design d(library_);
  // DFF Q -> INV -> DFF D: a legal sequential loop.
  const NetId q = d.add_net("q");
  const NetId nd = d.add_net("nd");
  const NetId clk = d.add_net("clk");
  const InstId ff = d.add_instance("ff", "DFF_X1");
  const InstId inv = d.add_instance("inv", "INV_X1");
  d.add_input_port("clk_in", clk);
  d.connect(ff, "Q", q);
  d.connect(ff, "CK", clk);
  d.connect(inv, "A", q);
  d.connect(inv, "Y", nd);
  d.connect(ff, "D", nd);

  const auto order = d.topological_order();
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(d.sequentials().size(), 1u);
}

TEST_F(NetlistTest, CombinationalLoopThrows) {
  Design d(library_);
  const NetId a = d.add_net("a");
  const NetId b = d.add_net("b");
  const InstId g1 = d.add_instance("g1", "INV_X1");
  const InstId g2 = d.add_instance("g2", "INV_X1");
  d.connect(g1, "A", b);
  d.connect(g1, "Y", a);
  d.connect(g2, "A", a);
  d.connect(g2, "Y", b);
  EXPECT_THROW((void)d.topological_order(), std::runtime_error);
}

TEST_F(NetlistTest, OutputPortCap) {
  Design d(library_);
  const NetId n = d.add_net("n");
  d.add_input_port("i", n);
  const PinId po = d.add_output_port("o", n, 7e-15);
  EXPECT_DOUBLE_EQ(d.pin_cap(po), 7e-15);
  EXPECT_EQ(d.pin_name(po), "o");
}

}  // namespace
}  // namespace nw::net
