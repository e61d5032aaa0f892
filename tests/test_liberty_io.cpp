// .nlib serialization round-trip and error handling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "library/liberty_io.hpp"

namespace nw::lib {
namespace {

TEST(LibertyIo, RoundTripDefaultLibrary) {
  const Library lib = default_library();
  const std::string text = write_library_string(lib);
  const Library back = read_library_string(text);

  EXPECT_EQ(back.name(), lib.name());
  EXPECT_DOUBLE_EQ(back.vdd(), lib.vdd());
  ASSERT_EQ(back.size(), lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const Cell& a = lib.cell(i);
    const Cell& b = back.cell(i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_DOUBLE_EQ(a.drive_resistance, b.drive_resistance);
    EXPECT_DOUBLE_EQ(a.holding_resistance, b.holding_resistance);
    EXPECT_DOUBLE_EQ(a.setup, b.setup);
    EXPECT_DOUBLE_EQ(a.hold, b.hold);
    ASSERT_EQ(a.pins.size(), b.pins.size());
    for (std::size_t p = 0; p < a.pins.size(); ++p) {
      EXPECT_EQ(a.pins[p].name, b.pins[p].name);
      EXPECT_EQ(a.pins[p].dir, b.pins[p].dir);
      EXPECT_EQ(a.pins[p].role, b.pins[p].role);
      EXPECT_DOUBLE_EQ(a.pins[p].cap, b.pins[p].cap);
    }
    ASSERT_EQ(a.arcs.size(), b.arcs.size());
    for (std::size_t k = 0; k < a.arcs.size(); ++k) {
      EXPECT_EQ(a.arcs[k].from_pin, b.arcs[k].from_pin);
      EXPECT_EQ(a.arcs[k].to_pin, b.arcs[k].to_pin);
      EXPECT_EQ(a.arcs[k].sense, b.arcs[k].sense);
      // Exact table round-trip at a probe point.
      EXPECT_DOUBLE_EQ(a.arcs[k].delay_rise.lookup(3e-11, 1e-14),
                       b.arcs[k].delay_rise.lookup(3e-11, 1e-14));
      EXPECT_DOUBLE_EQ(a.arcs[k].slew_fall.lookup(1e-10, 5e-14),
                       b.arcs[k].slew_fall.lookup(1e-10, 5e-14));
    }
    EXPECT_DOUBLE_EQ(a.immunity.threshold(7e-11), b.immunity.threshold(7e-11));
    EXPECT_DOUBLE_EQ(a.propagation.out_peak.lookup(0.6, 1e-10),
                     b.propagation.out_peak.lookup(0.6, 1e-10));
    EXPECT_DOUBLE_EQ(a.propagation.out_width.lookup(0.6, 1e-10),
                     b.propagation.out_width.lookup(0.6, 1e-10));
  }
}

TEST(LibertyIo, DoubleRoundTripIsIdentical) {
  const Library lib = default_library();
  const std::string once = write_library_string(lib);
  const std::string twice = write_library_string(read_library_string(once));
  EXPECT_EQ(once, twice);
}

TEST(LibertyIo, CommentsAndBlanksIgnored) {
  const std::string text =
      "# a comment\n"
      "\n"
      "library t vdd 1\n"
      "# another\n"
      "end_library\n";
  const Library lib = read_library_string(text);
  EXPECT_EQ(lib.name(), "t");
  EXPECT_EQ(lib.size(), 0u);
}

/// The default library's text with the line starting `prefix` in cell
/// `cell` replaced by `line`; `lineno` receives the edited line's number.
std::string edit_default(const std::string& cell, const std::string& prefix,
                         const std::string& line, std::size_t& lineno) {
  std::istringstream in(write_library_string(default_library()));
  std::string out;
  std::string cur;
  std::string text;
  std::size_t n = 0;
  lineno = 0;
  while (std::getline(in, text)) {
    ++n;
    if (text.rfind("cell ", 0) == 0) cur = text.substr(5, text.find(' ', 5) - 5);
    if (lineno == 0 && cur == cell && text.rfind(prefix, 0) == 0) {
      text = line;
      lineno = n;
    }
    out += text + "\n";
  }
  return out;
}

TEST(LibertyIo, Errors) {
  EXPECT_THROW((void)read_library_string("bogus\n"), std::runtime_error);
  EXPECT_THROW((void)read_library_string("library t vdd 1\n"), std::runtime_error);
  EXPECT_THROW((void)read_library_string("library t vdd 1\npin A input role none cap 0\n"),
               std::runtime_error);
  EXPECT_THROW(
      (void)read_library_string("library t vdd 1\ncell C kind bogus drive 1 holdres 1 "
                                "setup 0 holdt 0\nend_cell\nend_library\n"),
      std::runtime_error);

  // Values the analysis cannot use fail on their own line instead of
  // yielding a library that reads as clean or indexes out of range.
  struct Probe {
    const char* cell;
    const char* prefix;
    const char* line;
    const char* message;
  };
  const Probe probes[] = {
      {"INV_X1", "pin A", "pin A input role none cap -1e-12", "pin cap must be >= 0"},
      {"INV_X1", "pin A", "pin A input role none cap nan", "pin cap must be finite"},
      {"INV_X1", "pin A", "pin A input role none cap x", "bad number 'x' for pin cap"},
      {"INV_X1", "pin A", "pin A sideways role none cap 0", "bad pin direction"},
      {"BUF_X1", "arc ", "arc 7 1 pos", "arc pin out of range"},
      {"BUF_X1", "arc ", "arc 1 0 pos", "arc from-pin 1 is not an input"},
      {"BUF_X1", "arc ", "arc 0 0 pos", "arc to-pin 0 is not an output"},
      {"BUF_X1", "arc ", "arc x 1 pos", "bad integer 'x' for arc from-pin"},
      {"BUF_X1", "arc ", "arc 0 1 sideways", "bad arc sense"},
      {"BUF_X1", "delay_rise", "delay_rise t2 5 99999999999999 ;", "exceeds the 2 tokens left"},
      {"BUF_X1", "delay_rise", "delay_rise t2 1 99999999999999 ; 0 ;", "t2: size 99999999999999"},
      {"BUF_X1", "delay_rise", "delay_rise t2 1 1 ; 0 ; 0 ; inf", "t2 value must be finite"},
      {"BUF_X1", "delay_rise", "delay_rise t2 2 1 ; 1 0 ; 0 ; 1 2", "not strictly increasing"},
      {"INV_X1", "immunity", "immunity t1 1 ; 0 ; nan", "t1 value must be finite"},
      {"INV_X1", "immunity", "immunity t1", "t1: missing size"},
      {"INV_X1", "cell ", "cell INV_X1 kind comb drive 1 holdres nan setup 0 holdt 0",
       "holdres must be finite"},
      {"INV_X1", "cell ", "cell INV_X1 kind comb drive nan holdres 1 setup 0 holdt 0",
       "drive must be finite"},
      {"INV_X1", "cell ", "cell INV_X1 kind comb drive 1 holdres 1 setup -1 holdt 0",
       "setup must be >= 0"},
      {"INV_X1", "cell ", "cell INV_X1 kind bogus drive 1 holdres 1 setup 0 holdt 0",
       "bad cell kind"},
      {"INV_X2", "cell ", "cell INV_X1 kind comb drive 1 holdres 1 setup 0 holdt 0",
       "duplicate cell"},
  };
  for (const Probe& p : probes) {
    SCOPED_TRACE(p.line);
    std::size_t lineno = 0;
    const std::string text = edit_default(p.cell, p.prefix, p.line, lineno);
    ASSERT_GT(lineno, 0u);
    // A duplicate cell is detected at its end_cell line, 11 lines on.
    const std::size_t at = std::string(p.message) == "duplicate cell" ? lineno + 11 : lineno;
    const std::string where = "nlib line " + std::to_string(at) + ": ";
    try {
      (void)read_library_string(text);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(where, 0), 0u) << what;
      EXPECT_NE(what.find(p.message), std::string::npos) << what;
    }
  }
  try {
    (void)read_library_string("library t vdd -1\nend_library\n");
    ADD_FAILURE() << "negative vdd accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nlib line 1: vdd must be >= 0"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace nw::lib
