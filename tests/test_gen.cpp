// Testcase generators: structural sanity, determinism, configurability.
#include <gtest/gtest.h>

#include "extract/routed_bus.hpp"
#include "gen/bus.hpp"
#include "gen/pipeline.hpp"
#include "gen/randlogic.hpp"
#include "parasitics/spef.hpp"
#include "util/units.hpp"

namespace nw::gen {
namespace {

class GenTest : public ::testing::Test {
 protected:
  lib::Library library_ = lib::default_library();
};

TEST_F(GenTest, BusStructure) {
  BusConfig cfg;
  cfg.bits = 16;
  cfg.segments = 3;
  cfg.receiver_depth = 2;
  const Generated g = make_bus(library_, cfg);

  // 16 wires + 16*2 receiver nets.
  EXPECT_EQ(g.design.net_count(), 16u + 32u);
  EXPECT_EQ(g.design.instance_count(), 32u);
  EXPECT_TRUE(g.design.lint().empty());
  EXPECT_NO_THROW((void)g.design.topological_order());

  // Coupling: 15 adjacent pairs * 3 segs + 14 second pairs * 3 segs.
  EXPECT_EQ(g.para.couplings().size(), 15u * 3 + 14u * 3);
  // Every wire has segments+1 RC nodes and is a tree.
  for (std::size_t b = 0; b < cfg.bits; ++b) {
    const auto id = *g.design.find_net("w" + std::to_string(b));
    EXPECT_EQ(g.para.net(id).node_count(), cfg.segments + 1);
    EXPECT_TRUE(g.para.net(id).is_tree());
  }
  // STA options carry one arrival per input.
  EXPECT_EQ(g.sta_options.input_arrivals.size(), cfg.bits);
}

TEST_F(GenTest, BusDeterministic) {
  BusConfig cfg;
  cfg.bits = 8;
  const Generated a = make_bus(library_, cfg);
  const Generated b = make_bus(library_, cfg);
  EXPECT_EQ(para::write_spef_string(a.design, a.para),
            para::write_spef_string(b.design, b.para));
  EXPECT_EQ(a.sta_options.input_arrivals.at("in3").lo,
            b.sta_options.input_arrivals.at("in3").lo);
}

TEST_F(GenTest, BusStaggerGroups) {
  BusConfig cfg;
  cfg.bits = 8;
  cfg.stagger_groups = 2;
  cfg.stagger = 500 * PS;
  cfg.jitter = 0.0;
  const Generated g = make_bus(library_, cfg);
  const Interval w0 = g.sta_options.input_arrivals.at("in0");
  const Interval w1 = g.sta_options.input_arrivals.at("in1");
  const Interval w2 = g.sta_options.input_arrivals.at("in2");
  EXPECT_FALSE(w0.overlaps(w1));  // different groups
  EXPECT_EQ(w0, w2);              // same group
}

TEST_F(GenTest, BusValidation) {
  BusConfig cfg;
  cfg.bits = 1;
  EXPECT_THROW((void)make_bus(library_, cfg), std::invalid_argument);
  cfg.bits = 4;
  cfg.segments = 0;
  EXPECT_THROW((void)make_bus(library_, cfg), std::invalid_argument);
}

TEST_F(GenTest, RandLogicStructure) {
  RandLogicConfig cfg;
  cfg.primary_inputs = 12;
  cfg.gates = 200;
  cfg.levels = 5;
  const Generated g = make_rand_logic(library_, cfg);
  EXPECT_EQ(g.design.instance_count(), 200u);
  EXPECT_TRUE(g.design.lint().empty()) << g.design.lint().front();
  EXPECT_NO_THROW((void)g.design.topological_order());
  EXPECT_GT(g.para.couplings().size(), 0u);
  EXPECT_EQ(g.design.sequentials().size(), 0u);
}

TEST_F(GenTest, RandLogicWithFlops) {
  RandLogicConfig cfg;
  cfg.primary_inputs = 12;
  cfg.gates = 150;
  cfg.levels = 5;
  cfg.dff_fraction = 0.5;
  const Generated g = make_rand_logic(library_, cfg);
  EXPECT_GT(g.design.sequentials().size(), 0u);
  EXPECT_TRUE(g.design.lint().empty()) << g.design.lint().front();
  EXPECT_NO_THROW((void)g.design.topological_order());
}

TEST_F(GenTest, RandLogicDeterministic) {
  RandLogicConfig cfg;
  cfg.gates = 100;
  const Generated a = make_rand_logic(library_, cfg);
  const Generated b = make_rand_logic(library_, cfg);
  EXPECT_EQ(a.design.net_count(), b.design.net_count());
  EXPECT_EQ(para::write_spef_string(a.design, a.para),
            para::write_spef_string(b.design, b.para));
  cfg.seed = 99;
  const Generated c = make_rand_logic(library_, cfg);
  EXPECT_NE(para::write_spef_string(a.design, a.para),
            para::write_spef_string(c.design, c.para));
}

TEST_F(GenTest, PipelineStructure) {
  PipelineConfig cfg;
  cfg.paths = 8;
  const Generated g = make_pipeline(library_, cfg);
  // 2 flops per path.
  EXPECT_EQ(g.design.sequentials().size(), 16u);
  EXPECT_TRUE(g.design.lint().empty()) << g.design.lint().front();
  EXPECT_NO_THROW((void)g.design.topological_order());
  // Capture nets couple to first and second neighbours.
  EXPECT_EQ(g.para.couplings().size(), (cfg.paths - 1) + (cfg.paths - 2));
}

TEST_F(GenTest, PipelineValidation) {
  PipelineConfig cfg;
  cfg.paths = 1;
  EXPECT_THROW((void)make_pipeline(library_, cfg), std::invalid_argument);
  cfg.paths = 4;
  cfg.min_depth = 3;
  cfg.max_depth = 2;
  EXPECT_THROW((void)make_pipeline(library_, cfg), std::invalid_argument);
}

TEST_F(GenTest, RandLogicUsesThreeInputCells) {
  RandLogicConfig cfg;
  cfg.primary_inputs = 16;
  cfg.gates = 400;
  cfg.levels = 6;
  const Generated g = make_rand_logic(library_, cfg);
  std::size_t three_in = 0;
  for (std::size_t i = 0; i < g.design.instance_count(); ++i) {
    three_in += g.design.cell_of(InstId{i}).input_count() == 3;
  }
  EXPECT_GT(three_in, 0u);
}

TEST_F(GenTest, PipelineLatchCapture) {
  PipelineConfig cfg;
  cfg.paths = 4;
  cfg.latch_capture = true;
  const Generated g = make_pipeline(library_, cfg);
  std::size_t latches = 0;
  for (const auto s : g.design.sequentials()) {
    latches += g.design.cell_of(s).kind == lib::CellKind::kLatch;
  }
  EXPECT_EQ(latches, cfg.paths);  // capture elements only; launches stay DFFs
  EXPECT_TRUE(g.design.lint().empty());
}

TEST_F(GenTest, RoutedBusDeterministicAndValid) {
  RoutedBusConfig cfg;
  cfg.bits = 6;
  const extract::Tech tech = extract::Tech::generic();
  const RoutedGenerated a = make_routed_bus(library_, tech, cfg);
  const RoutedGenerated b = make_routed_bus(library_, tech, cfg);
  EXPECT_EQ(para::write_spef_string(a.design, a.para),
            para::write_spef_string(b.design, b.para));
  EXPECT_TRUE(a.design.lint().empty());
  EXPECT_THROW((void)[&] {
    RoutedBusConfig bad;
    bad.pitch = bad.width;  // pitch must exceed width
    return make_routed_bus(library_, tech, bad);
  }(), std::invalid_argument);
}

TEST_F(GenTest, GeneratedDesignsRunThroughSpefRoundTrip) {
  BusConfig cfg;
  cfg.bits = 6;
  const Generated g = make_bus(library_, cfg);
  const std::string text = para::write_spef_string(g.design, g.para);
  const para::Parasitics back = para::read_spef_string(text, g.design);
  EXPECT_EQ(back.couplings().size(), g.para.couplings().size());
}

}  // namespace
}  // namespace nw::gen
