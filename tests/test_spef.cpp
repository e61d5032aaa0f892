// SPEF-like format round-trip against a real design.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench/suite.hpp"
#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "library/liberty_io.hpp"
#include "library/library.hpp"
#include "netlist/design.hpp"
#include "netlist/verilog.hpp"
#include "parasitics/spef.hpp"
#include "tools/cli.hpp"

namespace nw::para {
namespace {

struct Fixture {
  lib::Library library = lib::default_library();
  net::Design design{library, "spef_test"};
  NetId a, b;

  Fixture() {
    a = design.add_net("na");
    b = design.add_net("nb");
    design.add_input_port("ia", a);
    design.add_input_port("ib", b);
    const InstId g1 = design.add_instance("g1", "INV_X1");
    const InstId g2 = design.add_instance("g2", "INV_X1");
    design.connect(g1, "A", a);
    design.connect(g2, "A", b);
    const NetId ya = design.add_net("ya");
    const NetId yb = design.add_net("yb");
    design.connect(g1, "Y", ya);
    design.connect(g2, "Y", yb);
    design.add_output_port("oa", ya);
    design.add_output_port("ob", yb);
  }

  Parasitics make_para() const {
    Parasitics p(design.net_count());
    RcNet& ra = p.net(a);
    const auto a1 = ra.add_node(2e-15);
    ra.add_res(0, a1, 55.5);
    ra.add_cap(0, 1e-15);
    ra.attach_pin(a1, design.net(a).loads.front());
    RcNet& rb = p.net(b);
    const auto b1 = rb.add_node(3e-15);
    rb.add_res(0, b1, 44.25);
    rb.attach_pin(b1, design.net(b).loads.front());
    p.add_coupling(a, a1, b, b1, 4.5e-15);
    return p;
  }
};

TEST(Spef, RoundTrip) {
  const Fixture f;
  const Parasitics p = f.make_para();
  const std::string text = write_spef_string(f.design, p);
  const Parasitics back = read_spef_string(text, f.design);

  ASSERT_EQ(back.net_count(), p.net_count());
  for (std::size_t i = 0; i < p.net_count(); ++i) {
    const RcNet& x = p.net(NetId{i});
    const RcNet& y = back.net(NetId{i});
    ASSERT_EQ(x.node_count(), y.node_count()) << "net " << i;
    EXPECT_DOUBLE_EQ(x.total_ground_cap(), y.total_ground_cap());
    EXPECT_DOUBLE_EQ(x.total_res(), y.total_res());
    for (std::uint32_t n = 0; n < x.node_count(); ++n) {
      EXPECT_EQ(x.node(n).pin, y.node(n).pin);
    }
  }
  ASSERT_EQ(back.couplings().size(), 1u);
  EXPECT_DOUBLE_EQ(back.couplings()[0].c, 4.5e-15);
  EXPECT_EQ(back.couplings()[0].net_a, f.a);
  EXPECT_EQ(back.couplings()[0].node_a, 1u);
}

TEST(Spef, DoubleRoundTripIsIdentical) {
  const Fixture f;
  const Parasitics p = f.make_para();
  const std::string once = write_spef_string(f.design, p);
  const std::string twice =
      write_spef_string(f.design, read_spef_string(once, f.design));
  EXPECT_EQ(once, twice);
}

TEST(Spef, ParseErrors) {
  const Fixture f;
  EXPECT_THROW((void)read_spef_string("", f.design), std::runtime_error);
  EXPECT_THROW((void)read_spef_string("*NET na 2\n*END\n", f.design),
               std::runtime_error);  // missing header
  EXPECT_THROW(
      (void)read_spef_string("*NWSPEF 1\n*NET bogus 2\n*ENDNET\n*END\n", f.design),
      std::runtime_error);
  EXPECT_THROW(
      (void)read_spef_string("*NWSPEF 1\n*NET na 2\n*P 1 nosuch/PIN\n*ENDNET\n*END\n",
                             f.design),
      std::runtime_error);
  EXPECT_THROW((void)read_spef_string("*NWSPEF 1\n*C 0 1e-15\n*END\n", f.design),
               std::runtime_error);  // *C outside net
  EXPECT_THROW((void)read_spef_string("*NWSPEF 1\n*NET na 1\n", f.design),
               std::runtime_error);  // missing *END
}

/// Expect `text` to fail to read, with a diagnostic naming line `line`.
void expect_fails_at_line(const std::string& text, const net::Design& design,
                          std::size_t line) {
  try {
    (void)read_spef_string(text, design);
    ADD_FAILURE() << "expected a parse error at line " << line;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) + ":"),
              std::string::npos)
        << e.what();
  }
}

/// Replace the last token of the first line starting with `prefix` by
/// `value`; returns that line's 1-based number.
std::size_t replace_last_token(std::string& text, const std::string& prefix,
                               const std::string& value) {
  std::size_t line = 1;
  std::size_t begin = 0;
  while (text.compare(begin, prefix.size(), prefix) != 0) {
    begin = text.find('\n', begin);
    if (begin == std::string::npos) throw std::logic_error("no line " + prefix);
    ++begin;
    ++line;
  }
  const std::size_t end = text.find('\n', begin);
  const std::size_t last = text.rfind(' ', end) + 1;
  text.replace(last, end - last, value);
  return line;
}

// Bad values fail at read time naming their line: NaN couplings and
// resistances (which would otherwise reach the analyzer's sort comparators),
// non-finite or negative caps, node counts too large to allocate, malformed
// numbers, unknown names and out-of-range node indices.
TEST(Spef, Errors) {
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 8;
  const gen::Generated g = gen::make_bus(library, cfg);
  const std::string good = write_spef_string(g.design, g.para);

  std::string text = good;
  expect_fails_at_line(text, g.design, replace_last_token(text, "*CC ", "nan"));
  text = good;
  expect_fails_at_line(text, g.design, replace_last_token(text, "*R ", "nan"));
  text = good;
  expect_fails_at_line(text, g.design, replace_last_token(text, "*C ", "inf"));
  text = good;
  expect_fails_at_line(text, g.design, replace_last_token(text, "*C ", "-1e-15"));
  text = good;
  expect_fails_at_line(text, g.design, replace_last_token(text, "*NET ", "3000000000"));
  text = good;
  expect_fails_at_line(text, g.design, replace_last_token(text, "*R ", "1.0e"));

  // Unknown names on *P lines name the line too.
  const std::string bad_port = "*NWSPEF 1\n*NET w0 2\n*P 1 in0\n*P 1 nosuch\n*ENDNET\n*END\n";
  expect_fails_at_line(bad_port, g.design, 4);
  expect_fails_at_line("*NWSPEF 1\n*NET w0 2\n*P 1 nosuch/A\n*ENDNET\n*END\n", g.design, 3);
  expect_fails_at_line("*NWSPEF 1\n*NET w0 2\n*P 99 in0\n*ENDNET\n*END\n", g.design, 3);
  // A node index that would wrap a 32-bit index onto node 1.
  expect_fails_at_line("*NWSPEF 1\n*NET w0 2\n*R 0 4294967297 10\n*ENDNET\n*END\n",
                       g.design, 3);

  // From files through the CLI under no-filtering, where a NaN coupling
  // would otherwise yield a "clean" report: the run fails naming the line.
  text = good;
  const std::size_t cc_line = replace_last_token(text, "*CC ", "nan");
  const auto dir = std::filesystem::temp_directory_path() / "noisewin_spef_errors";
  std::filesystem::create_directories(dir);
  const auto lib_path = (dir / "lib.nlib").string();
  const auto nv_path = (dir / "top.nv").string();
  const auto spef_path = (dir / "top.nwspef").string();
  std::ofstream(lib_path) << lib::write_library_string(library);
  std::ofstream(nv_path) << net::write_netlist_string(g.design);
  std::ofstream(spef_path) << text;
  std::ostringstream out;
  std::ostringstream err;
  const std::vector<std::string> args = {"--lib",  lib_path,  "--netlist", nv_path, "--spef",
                                         spef_path, "--mode", "no-filtering"};
  const int rc = cli::run_cli(args, out, err);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(rc, 1) << out.str();
  EXPECT_NE(err.str().find("line " + std::to_string(cc_line) + ":"), std::string::npos)
      << err.str();
  EXPECT_EQ(out.str().find("violations"), std::string::npos) << out.str();
}

// A port-heavy design (about a quarter of its nets end at output ports)
// read back through both formats writes the same SPEF bytes it was read
// from.
TEST(Spef, PortHeavyRoundTripIsIdentical) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_rand_logic(library, bench::logic_config(20000));
  ASSERT_GT(g.design.output_ports().size(), 2000u);
  const std::string text = write_spef_string(g.design, g.para);
  const net::Design back = net::read_netlist_string(net::write_netlist_string(g.design), library);
  EXPECT_EQ(write_spef_string(back, read_spef_string(text, back)), text);
}

TEST(Spef, ResolvesPortsAndInstancePins) {
  const Fixture f;
  const std::string text =
      "*NWSPEF 1\n"
      "*DESIGN spef_test\n"
      "*NET na 2\n"
      "*C 1 1e-15\n"
      "*P 1 g1/A\n"
      "*R 0 1 10\n"
      "*ENDNET\n"
      "*END\n";
  const Parasitics p = read_spef_string(text, f.design);
  const RcNet& rc = p.net(f.a);
  EXPECT_EQ(rc.node_count(), 2u);
  EXPECT_EQ(f.design.pin_name(rc.node(1).pin), "g1/A");
}

}  // namespace
}  // namespace nw::para
