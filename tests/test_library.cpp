// Cell library: default library contents, model shapes, monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string_view>

#include "library/library.hpp"
#include "util/units.hpp"

namespace nw::lib {
namespace {

/// The cell called `name`, looked up through find(): a missing cell throws
/// std::bad_optional_access, which fails the test.
const Cell& named(const Library& lib, std::string_view name) {
  return lib.cell(lib.find(name).value());
}

/// Number of input pins of `cell`.
long inputs(const Cell& cell) {
  return std::count_if(cell.pins.begin(), cell.pins.end(),
                       [](const Pin& p) { return p.dir == PinDir::kInput; });
}

TEST(Library, DefaultLibraryContents) {
  const Library lib = default_library();
  EXPECT_EQ(lib.cells().size(), 18u);
  for (const char* name : {"INV_X1", "INV_X2", "INV_X4", "BUF_X1", "BUF_X2", "BUF_X4",
                           "NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1", "XOR2_X1",
                           "NAND3_X1", "NOR3_X1", "AOI21_X1", "OAI21_X1", "MUX2_X1",
                           "DFF_X1", "LATCH_X1"}) {
    EXPECT_TRUE(lib.find(name).has_value()) << name;
  }
  EXPECT_EQ(inputs(named(lib, "NAND3_X1")), 3);
  EXPECT_EQ(named(lib, "MUX2_X1").arcs.front().sense, ArcSense::kNonUnate);
  EXPECT_FALSE(lib.find("NAND4_X1").has_value());
  EXPECT_DOUBLE_EQ(lib.vdd(), 1.2);
}

TEST(Library, DuplicateCellThrows) {
  Library lib("t", 1.0);
  Cell c;
  c.name = "X";
  lib.add_cell(c);
  EXPECT_THROW(lib.add_cell(c), std::invalid_argument);
}

TEST(Cell, PinQueries) {
  const Library lib = default_library();
  const Cell& nand = named(lib, "NAND2_X1");
  EXPECT_EQ(inputs(nand), 2);
  EXPECT_TRUE(nand.find_pin("A").has_value());
  EXPECT_TRUE(nand.find_pin("B").has_value());
  const std::optional<std::size_t> y = nand.find_pin("Y");
  ASSERT_TRUE(y.has_value());
  EXPECT_EQ(nand.pins[*y].dir, PinDir::kOutput);
  EXPECT_FALSE(nand.find_pin("Z").has_value());
  EXPECT_FALSE(nand.is_sequential());
}

TEST(Cell, SequentialRoles) {
  const Library lib = default_library();
  const Cell& dff = named(lib, "DFF_X1");
  EXPECT_TRUE(dff.is_sequential());
  EXPECT_EQ(dff.kind, CellKind::kDff);
  EXPECT_GT(dff.setup, 0.0);
  EXPECT_GT(dff.hold, 0.0);
  bool has_clock = false;
  bool has_data = false;
  for (const auto& p : dff.pins) {
    has_clock |= p.role == PinRole::kClock;
    has_data |= p.role == PinRole::kData;
  }
  EXPECT_TRUE(has_clock);
  EXPECT_TRUE(has_data);

  const Cell& latch = named(lib, "LATCH_X1");
  EXPECT_EQ(latch.kind, CellKind::kLatch);
}

TEST(Cell, DriveStrengthScalesResistance) {
  const Library lib = default_library();
  const double r1 = named(lib, "INV_X1").drive_resistance;
  const double r2 = named(lib, "INV_X2").drive_resistance;
  const double r4 = named(lib, "INV_X4").drive_resistance;
  EXPECT_NEAR(r1 / r2, 2.0, 1e-9);
  EXPECT_NEAR(r1 / r4, 4.0, 1e-9);
  // Holding resistance is a fixed factor above drive.
  EXPECT_GT(named(lib, "INV_X1").holding_resistance, r1);
}

TEST(Cell, DelayIncreasesWithLoad) {
  const Library lib = default_library();
  const Cell& inv = named(lib, "INV_X1");
  ASSERT_FALSE(inv.arcs.empty());
  const TimingArc& arc = inv.arcs.front();
  const double d_small = arc.delay_rise.lookup(20 * PS, 2 * FF);
  const double d_big = arc.delay_rise.lookup(20 * PS, 100 * FF);
  EXPECT_GT(d_big, d_small);
  // And with input slew.
  const double d_slow_in = arc.delay_rise.lookup(200 * PS, 2 * FF);
  EXPECT_GT(d_slow_in, d_small);
}

TEST(Cell, SlewIncreasesWithLoad) {
  const Library lib = default_library();
  const TimingArc& arc = named(lib, "BUF_X1").arcs.front();
  EXPECT_GT(arc.slew_rise.lookup(20 * PS, 100 * FF),
            arc.slew_rise.lookup(20 * PS, 2 * FF));
}

TEST(Immunity, DecreasesWithWidthToDcMargin) {
  const TechParams tp;
  const Library lib = default_library(tp);
  const NoiseImmunity& im = named(lib, "INV_X1").immunity;
  const double narrow = im.threshold(5 * PS);
  const double mid = im.threshold(100 * PS);
  const double wide = im.threshold(1 * NS);
  EXPECT_GT(narrow, mid);
  EXPECT_GT(mid, wide);
  // Wide-glitch immunity approaches the DC margin.
  EXPECT_NEAR(wide, tp.dc_margin_frac * tp.vdd, 0.05 * tp.vdd);
  // Narrow-glitch immunity approaches the rail.
  EXPECT_GT(narrow, 0.8 * tp.vdd);
}

TEST(Immunity, SlackSign) {
  const Library lib = default_library();
  const NoiseImmunity& im = named(lib, "INV_X1").immunity;
  // Noise slack is threshold(width) - peak; negative means a violation.
  EXPECT_GT(im.threshold(50 * PS) - 0.1, 0.0);    // small glitch: safe
  EXPECT_LT(im.threshold(500 * PS) - 1.15, 0.0);  // near-rail wide glitch: fails
}

TEST(Propagation, MonotoneInPeakAndWidth) {
  const Library lib = default_library();
  const NoisePropagation& np = named(lib, "INV_X1").propagation;
  const double base = np.out_peak.lookup(0.5, 100 * PS);
  EXPECT_GT(np.out_peak.lookup(0.8, 100 * PS), base);
  EXPECT_GE(np.out_peak.lookup(0.5, 400 * PS), base);
  // Sub-threshold glitches attenuate, super-threshold amplify.
  const TechParams tp;
  const double below = np.out_peak.lookup(0.2 * tp.vdd, 200 * PS);
  EXPECT_LT(below, 0.2 * tp.vdd);
  const double above = np.out_peak.lookup(0.8 * tp.vdd, 400 * PS);
  EXPECT_GT(above, 0.6 * tp.vdd);
}

TEST(Propagation, WidthGrowsThroughGate) {
  const Library lib = default_library();
  const NoisePropagation& np = named(lib, "INV_X1").propagation;
  EXPECT_GT(np.out_width.lookup(0.6, 100 * PS), 100 * PS);
}

TEST(Model, AnalyticFormsMatchTables) {
  const TechParams tp;
  const Library lib = default_library(tp);
  const Cell& inv = named(lib, "INV_X1");
  // Tables were sampled from the model:: functions on their grid points,
  // so a grid-point lookup reproduces the function exactly.
  const double w = 60 * PS;
  EXPECT_NEAR(inv.immunity.threshold(w), model::immunity_threshold(tp, w), 1e-12);
  const double d = model::delay(inv.drive_resistance, tp.intrinsic_delay, 20 * PS, 20 * FF);
  EXPECT_NEAR(inv.arcs.front().delay_rise.lookup(20 * PS, 20 * FF), d, 1e-15);
}

}  // namespace
}  // namespace nw::lib
