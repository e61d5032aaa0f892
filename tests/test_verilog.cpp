// .nv netlist format round-trip and error handling.
#include <gtest/gtest.h>

#include <sstream>

#include "bench/suite.hpp"
#include "gen/pipeline.hpp"
#include "gen/randlogic.hpp"
#include "library/liberty_io.hpp"
#include "library/library.hpp"
#include "netlist/verilog.hpp"
#include "noise/report_writer.hpp"
#include "parasitics/spef.hpp"
#include "text_io.hpp"

namespace nw::net {
namespace {

class VerilogTest : public ::testing::Test {
 protected:
  lib::Library library_ = lib::default_library();
};

TEST_F(VerilogTest, RoundTripSmallDesign) {
  Design d(library_, "rt");
  const NetId a = d.add_net("a");
  const NetId y = d.add_net("y");
  d.add_input_port("in", a, {750.0, 2.5e-11});
  const InstId g = d.add_instance("g0", "NAND2_X1");
  d.connect(g, "A", a);
  d.connect(g, "B", a);
  d.connect(g, "Y", y);
  d.add_output_port("out", y, 7e-15);

  const std::string text = textio::written(write_netlist, d);
  const Design back = textio::parsed(read_netlist, text, library_);

  EXPECT_EQ(back.name(), "rt");
  EXPECT_EQ(back.net_count(), d.net_count());
  EXPECT_EQ(back.instance_count(), d.instance_count());
  EXPECT_TRUE(back.lint().empty());
  // Port attributes survive.
  const PinId in = back.input_ports().front();
  EXPECT_DOUBLE_EQ(back.port_drive(in).resistance, 750.0);
  EXPECT_DOUBLE_EQ(back.port_drive(in).slew, 2.5e-11);
  EXPECT_DOUBLE_EQ(back.pin_cap(back.output_ports().front()), 7e-15);
  // Connectivity survives: g0/Y drives y, loaded by the out port.
  const auto yn = back.find_net("y");
  ASSERT_TRUE(yn.has_value());
  EXPECT_EQ(back.pin_name(back.net(*yn).driver), "g0/Y");
}

TEST_F(VerilogTest, DoubleRoundTripIsIdentical) {
  gen::Generated g = gen::make_rand_logic(library_, {});
  const std::string once = textio::written(write_netlist, g.design);
  const std::string twice =
      textio::written(write_netlist, textio::parsed(read_netlist, once, library_));
  EXPECT_EQ(once, twice);
}

TEST_F(VerilogTest, RoundTripSequentialDesign) {
  gen::Generated g = gen::make_pipeline(library_, {});
  const Design back =
      textio::parsed(read_netlist, textio::written(write_netlist, g.design), library_);
  EXPECT_EQ(back.sequentials().size(), g.design.sequentials().size());
  EXPECT_TRUE(back.lint().empty());
  EXPECT_NO_THROW((void)back.topological_order());
}

TEST_F(VerilogTest, CommentsAndBlankLines) {
  const std::string text =
      "// a comment\n"
      "module t\n"
      "\n"
      "input i n0\n"
      "output o n0\n"
      "endmodule\n";
  const Design d = textio::parsed(read_netlist, text, library_);
  EXPECT_EQ(d.net_count(), 1u);
  EXPECT_EQ(d.input_ports().size(), 1u);
}

TEST_F(VerilogTest, Errors) {
  auto expect_fail = [&](const std::string& text) {
    EXPECT_THROW((void)textio::parsed(read_netlist, text, library_), std::runtime_error) << text;
  };
  expect_fail("");                                       // no module
  expect_fail("module t\n");                             // missing endmodule
  expect_fail("module t\nmodule u\nendmodule\n");        // nested module
  expect_fail("module t\nbogus x\nendmodule\n");         // unknown keyword
  expect_fail("module t\ninst g NOPE\nendmodule\n");     // unknown cell
  expect_fail("module t\ninst g INV_X1 A=w\nendmodule\n");  // undeclared net
  expect_fail("module t\nwire w\ninst g INV_X1 Q=w\nendmodule\n");  // bad pin
  expect_fail("module t\nwire w\nwire w\nendmodule\n");  // duplicate wire
  expect_fail("module t\ninput i n0 bogus 5\nendmodule\n");  // bad attribute
  expect_fail("module t\ninput p a\noutput p b\nendmodule\n");  // duplicate port
  expect_fail("module t\ninput i n0 drive 1e\nendmodule\n");  // bad number
  // Non-finite or negative port values: they used to hang the analyzer or
  // pass as clean.
  expect_fail("module t\ninput i n0 drive nan\nendmodule\n");
  expect_fail("module t\ninput i n0 drive -5\nendmodule\n");
  expect_fail("module t\ninput i n0 drive inf\nendmodule\n");
  expect_fail("module t\ninput i n0 slew nan\nendmodule\n");
  expect_fail("module t\ninput i n0 slew -1e-12\nendmodule\n");
  expect_fail("module t\noutput o n0 cap nan\nendmodule\n");
  expect_fail("module t\noutput o n0 cap -1e-15\nendmodule\n");
}

TEST_F(VerilogTest, DoubleDriverFailsWithLineNumber) {
  const std::string text =
      "module t\n"
      "wire w\n"
      "inst g1 INV_X1 Y=w\n"
      "inst g2 INV_X1 Y=w\n"
      "endmodule\n";
  try {
    (void)textio::parsed(read_netlist, text, library_);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

// The writer declares every net in NetId order, so a design read back from
// files numbers its nets like the original, and an analysis from files
// (which orders aggressors and sums by NetId) gives the in-memory report
// byte for byte. On seeds 5 and 16 a different net order changes the report.
TEST_F(VerilogTest, FileRoundTripKeepsNetIdsAndReport) {
  for (const std::uint64_t seed : {5u, 16u}) {
    gen::RandLogicConfig cfg = bench::logic_config(2000);
    cfg.seed = seed;
    const gen::Generated g = gen::make_rand_logic(library_, cfg);

    const lib::Library lib_back =
        textio::parsed(lib::read_library, textio::written(lib::write_library, library_));
    const Design back =
        textio::parsed(read_netlist, textio::written(write_netlist, g.design), lib_back);
    ASSERT_EQ(back.net_count(), g.design.net_count()) << "seed " << seed;
    for (std::size_t i = 0; i < back.net_count(); ++i) {
      ASSERT_EQ(back.net(NetId{i}).name, g.design.net(NetId{i}).name)
          << "seed " << seed << " net " << i;
    }
    const para::Parasitics para_back =
        textio::parsed(para::read_spef, textio::written(para::write_spef, g.design, g.para), back);

    noise::Options opt;
    opt.mode = noise::AnalysisMode::kNoiseWindows;
    opt.model = noise::GlitchModel::kTwoPi;
    opt.clock_period = g.sta_options.clock_period;
    const auto report = [&](const Design& d, const para::Parasitics& p) {
      const sta::Result timing = sta::run(d, p, g.sta_options);
      std::ostringstream os;
      noise::write_report(os, d, opt, noise::analyze(d, p, timing, opt));
      return std::move(os).str();
    };
    EXPECT_EQ(report(back, para_back), report(g.design, g.para)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nw::net
