#include "netlist/verilog.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace nw::net {

void write_netlist(std::ostream& os, const Design& design) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "module " << design.name() << "\n";
  // Every net first, in NetId order, so the reader numbers them the same.
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    os << "wire " << design.net(NetId{i}).name << "\n";
  }
  for (const PinId p : design.input_ports()) {
    const Pin& pin = design.pin(p);
    const PortDrive& pd = design.port_drive(p);
    os << "input " << pin.port_name << ' ' << design.net(pin.net).name << " drive "
       << pd.resistance << " slew " << pd.slew << "\n";
  }
  for (const PinId p : design.output_ports()) {
    const Pin& pin = design.pin(p);
    os << "output " << pin.port_name << ' ' << design.net(pin.net).name << " cap "
       << design.pin_cap(p) << "\n";
  }
  for (std::size_t i = 0; i < design.instance_count(); ++i) {
    const Instance& inst = design.instance(InstId{i});
    const lib::Cell& cell = design.library().cell(inst.cell);
    os << "inst " << inst.name << ' ' << cell.name;
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      const Pin& p = design.pin(inst.pins[pi]);
      if (!p.net.valid()) continue;
      os << ' ' << cell.pins[pi].name << '=' << design.net(p.net).name;
    }
    os << "\n";
  }
  os << "endmodule\n";
}

Design read_netlist(std::istream& is, const lib::Library& library) {
  std::string line;
  std::vector<std::string_view> toks;
  int lineno = 0;
  auto fail = [&](const std::string& msg) -> void {
    throw std::runtime_error("nv line " + std::to_string(lineno) + ": " + msg);
  };

  // First line: module header.
  std::string design_name = "top";
  bool in_module = false;
  Design design(library, design_name);
  bool have_design = false;

  auto get_or_make_net = [&](std::string_view name) {
    const auto id = design.find_net(name);
    if (id) return *id;
    return design.add_net(name);
  };

  while (std::getline(is, line)) {
    ++lineno;
    const auto t = nw::trim(line);
    if (t.empty() || nw::starts_with(t, "//")) continue;
    nw::split_into(t, toks);
    const auto key = toks[0];

    // Design and number-parsing errors (unknown cells or pins, duplicate
    // names, double drivers, bad numbers) are rethrown below with the line.
    try {
      if (key == "module") {
        if (in_module) fail("nested module");
        if (toks.size() < 2) fail("module needs a name");
        design = Design(library, std::string(toks[1]));
        in_module = true;
        have_design = true;
      } else if (key == "endmodule") {
        if (!in_module) fail("endmodule outside module");
        return design;
      } else if (key == "input") {
        if (!in_module || toks.size() < 3) fail("bad input line");
        const NetId net = get_or_make_net(toks[2]);
        PortDrive pd;
        for (std::size_t i = 3; i + 1 < toks.size(); i += 2) {
          if (toks[i] == "drive") {
            pd.resistance = nw::parse_double(toks[i + 1]);
          } else if (toks[i] == "slew") {
            pd.slew = nw::parse_double(toks[i + 1]);
          } else {
            fail("unknown input attribute '" + std::string(toks[i]) + "'");
          }
        }
        design.add_input_port(toks[1], net, pd);
      } else if (key == "output") {
        if (!in_module || toks.size() < 3) fail("bad output line");
        const NetId net = get_or_make_net(toks[2]);
        double cap = 5e-15;
        for (std::size_t i = 3; i + 1 < toks.size(); i += 2) {
          if (toks[i] == "cap") {
            cap = nw::parse_double(toks[i + 1]);
          } else {
            fail("unknown output attribute '" + std::string(toks[i]) + "'");
          }
        }
        design.add_output_port(toks[1], net, cap);
      } else if (key == "wire") {
        if (!in_module || toks.size() < 2) fail("bad wire line");
        design.add_net(toks[1]);
      } else if (key == "inst") {
        if (!in_module || toks.size() < 3) fail("bad inst line");
        const InstId inst = design.add_instance(toks[1], toks[2]);
        for (std::size_t i = 3; i < toks.size(); ++i) {
          const auto eq = toks[i].find('=');
          if (eq == std::string_view::npos) {
            fail("expected PIN=net, got '" + std::string(toks[i]) + "'");
          }
          const auto net_name = toks[i].substr(eq + 1);
          const auto net = design.find_net(net_name);
          if (!net) fail("undeclared net '" + std::string(net_name) + "'");
          design.connect(inst, toks[i].substr(0, eq), *net);
        }
      } else {
        fail("unknown keyword '" + std::string(key) + "'");
      }
    } catch (const std::logic_error& e) {
      fail(e.what());
    }
  }
  if (!have_design || in_module) fail("missing endmodule");
  return design;
}

}  // namespace nw::net
