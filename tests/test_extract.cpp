// Geometric parasitic extraction: closed-form R/C values, coupling from
// spacing, route validation, and the routed-bus end-to-end flow.
#include <gtest/gtest.h>

#include <cmath>

#include "extract/extractor.hpp"
#include "extract/routed_bus.hpp"
#include "noise/analyzer.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace nw::extract {
namespace {

class ExtractTest : public ::testing::Test {
 protected:
  lib::Library library_ = lib::default_library();

  /// Two-wire design: in0 -> na -> rx0, in1 -> nb -> rx1.
  net::Design make_two_wire() {
    net::Design d(library_, "geo");
    for (int i = 0; i < 2; ++i) {
      const NetId n = d.add_net("n" + std::to_string(i));
      d.add_input_port("in" + std::to_string(i), n);
      const InstId rx = d.add_instance("rx" + std::to_string(i), "INV_X1");
      d.connect(rx, "A", n);
      const NetId y = d.add_net("y" + std::to_string(i));
      d.connect(rx, "Y", y);
      d.add_output_port("o" + std::to_string(i), y);
    }
    return d;
  }
};

TEST_F(ExtractTest, SingleSegmentValues) {
  net::Design d = make_two_wire();
  Tech tech = Tech::generic();
  const LayerTech& lt = tech.layer(0);

  Route r;
  r.net = *d.find_net("n0");
  Segment s;
  s.layer = 0;
  s.x0 = 0;
  s.x1 = 100e-6;
  s.y0 = s.y1 = 0;
  s.width = 0.2e-6;
  r.segments.push_back(s);
  r.pins.push_back({d.net(r.net).loads.front(), 0, false});

  ExtractStats st;
  const para::Parasitics p = extract(d, {&r, 1}, tech, &st);
  const para::RcNet& rc = p.net(r.net);
  ASSERT_EQ(rc.node_count(), 2u);
  ASSERT_EQ(rc.res_count(), 1u);
  // R = rho_sq * L / W.
  EXPECT_NEAR(rc.resistors()[0].r, lt.sheet_res * 100e-6 / 0.2e-6, 1e-9);
  // Cg = c_area*L*W + 2*c_fringe*L, split across two nodes.
  const double cg = lt.c_area * 100e-6 * 0.2e-6 + 2 * lt.c_fringe * 100e-6;
  EXPECT_NEAR(rc.total_ground_cap(), cg, 1e-20);
  EXPECT_NEAR(rc.node(0).cground, 0.5 * cg, 1e-20);
  // Pin attached at the far end.
  EXPECT_EQ(rc.node_of_pin(d.net(r.net).loads.front()), 1u);
  EXPECT_EQ(st.resistors, 1u);
  EXPECT_EQ(st.coupling_caps, 0u);
}

TEST_F(ExtractTest, CouplingScalesWithSpacingAndOverlap) {
  net::Design d = make_two_wire();
  const Tech tech = Tech::generic();
  const LayerTech& lt = tech.layer(0);

  auto wire = [&](const char* net, double y, double x0, double x1) {
    Route r;
    r.net = *d.find_net(net);
    Segment s;
    s.layer = 0;
    s.x0 = x0;
    s.x1 = x1;
    s.y0 = s.y1 = y;
    s.width = 0.2e-6;
    r.segments.push_back(s);
    r.pins.push_back({d.net(r.net).loads.front(), 0, false});
    return r;
  };

  // Full overlap at spacing 0.4 um.
  {
    const std::vector<Route> routes{wire("n0", 0.0, 0, 100e-6),
                                    wire("n1", 0.4e-6, 0, 100e-6)};
    ExtractStats st;
    const para::Parasitics p = extract(d, routes, tech, &st);
    ASSERT_EQ(st.coupling_caps, 1u);
    EXPECT_NEAR(p.couplings()[0].c, lt.c_couple * 100e-6 / 0.4e-6, 1e-20);
  }
  // Half overlap at double spacing: quarter the cap.
  {
    const std::vector<Route> routes{wire("n0", 0.0, 0, 100e-6),
                                    wire("n1", 0.8e-6, 50e-6, 150e-6)};
    ExtractStats st;
    const para::Parasitics p = extract(d, routes, tech, &st);
    ASSERT_EQ(st.coupling_caps, 1u);
    EXPECT_NEAR(p.couplings()[0].c, lt.c_couple * 50e-6 / 0.8e-6, 1e-20);
  }
  // Beyond the cutoff: no coupling.
  {
    const std::vector<Route> routes{wire("n0", 0.0, 0, 100e-6),
                                    wire("n1", 2e-6, 0, 100e-6)};
    ExtractStats st;
    (void)extract(d, routes, tech, &st);
    EXPECT_EQ(st.coupling_caps, 0u);
  }
  // Different layers never couple laterally here.
  {
    std::vector<Route> routes{wire("n0", 0.0, 0, 100e-6),
                              wire("n1", 0.4e-6, 0, 100e-6)};
    routes[1].segments[0].layer = 1;
    ExtractStats st;
    (void)extract(d, routes, tech, &st);
    EXPECT_EQ(st.coupling_caps, 0u);
  }
}

TEST_F(ExtractTest, MultiSegmentChainAndBend) {
  net::Design d = make_two_wire();
  const Tech tech = Tech::generic();
  Route r;
  r.net = *d.find_net("n0");
  // L-shape: east 50 um then north 30 um.
  Segment s1;
  s1.layer = 0;
  s1.x0 = 0;
  s1.x1 = 50e-6;
  s1.y0 = s1.y1 = 0;
  s1.width = 0.2e-6;
  Segment s2;
  s2.layer = 0;
  s2.x0 = s2.x1 = 50e-6;
  s2.y0 = 0;
  s2.y1 = 30e-6;
  s2.width = 0.2e-6;
  r.segments = {s1, s2};
  r.pins.push_back({d.net(r.net).loads.front(), 1, false});

  const para::Parasitics p = extract(d, {&r, 1}, tech);
  const para::RcNet& rc = p.net(r.net);
  EXPECT_EQ(rc.node_count(), 3u);  // shared corner node
  EXPECT_EQ(rc.res_count(), 2u);
  EXPECT_TRUE(rc.is_tree());
}

TEST_F(ExtractTest, Validation) {
  net::Design d = make_two_wire();
  const Tech tech = Tech::generic();
  Route r;
  r.net = *d.find_net("n0");
  EXPECT_THROW((void)extract(d, {&r, 1}, tech), std::invalid_argument);  // empty

  Segment diag;
  diag.x0 = 0;
  diag.y0 = 0;
  diag.x1 = 1e-6;
  diag.y1 = 1e-6;
  r.segments = {diag};
  EXPECT_THROW((void)extract(d, {&r, 1}, tech), std::invalid_argument);  // diagonal

  Segment ok;
  ok.layer = 9;
  ok.x0 = 0;
  ok.x1 = 1e-6;
  ok.y0 = ok.y1 = 0;
  ok.width = 0.2e-6;
  r.segments = {ok};
  EXPECT_THROW((void)extract(d, {&r, 1}, tech), std::out_of_range);  // bad layer

  // Disconnected pieces.
  Segment far_piece = ok;
  far_piece.layer = 0;
  far_piece.x0 = 10e-6;
  far_piece.x1 = 12e-6;
  Segment base = ok;
  base.layer = 0;
  r.segments = {base, far_piece};
  EXPECT_THROW((void)extract(d, {&r, 1}, tech), std::invalid_argument);
}

TEST_F(ExtractTest, RoutedBusEndToEnd) {
  gen::RoutedBusConfig cfg;
  cfg.bits = 12;
  cfg.segments = 3;
  gen::RoutedGenerated g =
      gen::make_routed_bus(library_, Tech::generic(), cfg);
  EXPECT_TRUE(g.design.lint().empty());
  EXPECT_GT(g.stats.coupling_caps, 0u);
  EXPECT_GT(g.stats.total_ground_cap, 0.0);

  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.clock_period = g.sta_options.clock_period;
  const noise::Result r = noise::analyze(g.design, g.para, timing, o);
  const NetId mid = *g.design.find_net("w6");
  EXPECT_GT(r.net(mid).aggressor_count, 0u);
  EXPECT_GT(r.net(mid).total_peak, 0.0);
}

TEST_F(ExtractTest, WiderSpacingReducesNoise) {
  // The physical-design lever: doubling the pitch must cut the victim
  // glitch substantially (coupling ~ 1/spacing).
  auto peak_at_pitch = [&](double pitch) {
    gen::RoutedBusConfig cfg;
    cfg.bits = 8;
    cfg.pitch = pitch;
    gen::RoutedGenerated g =
        gen::make_routed_bus(library_, Tech::generic(), cfg);
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    noise::Options o;
    o.clock_period = g.sta_options.clock_period;
    const noise::Result r = noise::analyze(g.design, g.para, timing, o);
    return r.net(*g.design.find_net("w4")).total_peak;
  };
  const double tight = peak_at_pitch(0.5e-6);
  const double loose = peak_at_pitch(1.0e-6);
  EXPECT_LT(loose, 0.7 * tight);
}

}  // namespace
}  // namespace nw::extract
