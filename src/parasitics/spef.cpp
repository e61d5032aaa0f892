#include "parasitics/spef.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace nw::para {

namespace {

/// Resolve "inst/PIN" or a port name to a PinId: hashed lookups, no copies.
PinId resolve_pin(const net::Design& d, std::string_view name) {
  const auto slash = name.find('/');
  if (slash != std::string_view::npos) {
    const auto inst = d.find_instance(name.substr(0, slash));
    if (!inst) throw std::invalid_argument("unknown instance in '" + std::string(name) + "'");
    const auto pin_idx = d.cell_of(*inst).find_pin(name.substr(slash + 1));
    if (!pin_idx) throw std::invalid_argument("unknown pin in '" + std::string(name) + "'");
    return d.instance(*inst).pins.at(*pin_idx);
  }
  if (const auto port = d.find_port(name)) return *port;
  throw std::invalid_argument("unknown port '" + std::string(name) + "'");
}

/// A node index; bounded by kMaxNetNodes so it cannot wrap a 32-bit index.
std::uint32_t parse_node(std::string_view tok) {
  const auto n = nw::parse_uint(tok);
  if (n >= kMaxNetNodes) {
    throw std::invalid_argument("node index " + std::string(tok) + " out of range");
  }
  return static_cast<std::uint32_t>(n);
}

}  // namespace

void write_spef(std::ostream& os, const net::Design& design, const Parasitics& para) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "*NWSPEF 1\n*DESIGN " << design.name() << "\n";
  for (std::size_t i = 0; i < para.net_count(); ++i) {
    const NetId id{i};
    const RcNet& rc = para.net(id);
    os << "*NET " << design.net(id).name << ' ' << rc.node_count() << "\n";
    for (std::uint32_t n = 0; n < rc.node_count(); ++n) {
      const RcNode& node = rc.node(n);
      if (node.cground != 0.0) os << "*C " << n << ' ' << node.cground << "\n";
      if (node.pin.valid()) os << "*P " << n << ' ' << design.pin_name(node.pin) << "\n";
    }
    for (const auto& r : rc.resistors()) {
      os << "*R " << r.a << ' ' << r.b << ' ' << r.r << "\n";
    }
    os << "*ENDNET\n";
  }
  for (const auto& cc : para.couplings()) {
    os << "*CC " << design.net(cc.net_a).name << ' ' << cc.node_a << ' '
       << design.net(cc.net_b).name << ' ' << cc.node_b << ' ' << cc.c << "\n";
  }
  os << "*END\n";
}

std::string write_spef_string(const net::Design& design, const Parasitics& para) {
  std::ostringstream os;
  write_spef(os, design, para);
  return os.str();
}

Parasitics read_spef(std::istream& is, const net::Design& design) {
  Parasitics para(design.net_count());
  std::string line;
  std::vector<std::string_view> toks;
  int lineno = 0;
  auto fail = [&](const std::string& msg) -> void {
    throw std::runtime_error("nwspef line " + std::to_string(lineno) + ": " + msg);
  };

  NetId cur_net;
  bool in_net = false;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++lineno;
    const auto t = nw::trim(line);
    if (t.empty() || nw::starts_with(t, "//")) continue;
    nw::split_into(t, toks);
    const auto key = toks[0];
    // Container and number-parsing errors (bad or non-finite values, node
    // indices out of range) are rethrown below with the line number.
    try {
      if (key == "*NWSPEF") {
        saw_header = true;
      } else if (key == "*DESIGN") {
        // informational
      } else if (key == "*NET") {
        if (!saw_header) fail("missing *NWSPEF header");
        if (in_net) fail("nested *NET");
        if (toks.size() < 3) fail("short *NET line");
        const auto id = design.find_net(toks[1]);
        if (!id) fail("unknown net '" + std::string(toks[1]) + "'");
        cur_net = *id;
        in_net = true;
        const auto n_nodes = nw::parse_uint(toks[2]);
        if (n_nodes > kMaxNetNodes) {
          fail("net '" + std::string(toks[1]) + "' declares " + std::string(toks[2]) +
               " nodes, more than the limit of " + std::to_string(kMaxNetNodes));
        }
        RcNet& rc = para.net(cur_net);
        while (rc.node_count() < n_nodes) rc.add_node();
      } else if (key == "*C") {
        if (!in_net || toks.size() < 3) fail("bad *C line");
        para.net(cur_net).add_cap(parse_node(toks[1]), nw::parse_double(toks[2]));
      } else if (key == "*P") {
        if (!in_net || toks.size() < 3) fail("bad *P line");
        para.net(cur_net).attach_pin(parse_node(toks[1]), resolve_pin(design, toks[2]));
      } else if (key == "*R") {
        if (!in_net || toks.size() < 4) fail("bad *R line");
        para.net(cur_net).add_res(parse_node(toks[1]), parse_node(toks[2]),
                                  nw::parse_double(toks[3]));
      } else if (key == "*ENDNET") {
        if (!in_net) fail("*ENDNET outside net");
        in_net = false;
      } else if (key == "*CC") {
        if (in_net) fail("*CC inside net section");
        if (toks.size() < 6) fail("short *CC line");
        const auto a = design.find_net(toks[1]);
        const auto b = design.find_net(toks[3]);
        if (!a || !b) fail("unknown net in *CC");
        para.add_coupling(*a, parse_node(toks[2]), *b, parse_node(toks[4]),
                          nw::parse_double(toks[5]));
      } else if (key == "*END") {
        return para;
      } else {
        fail("unknown keyword '" + std::string(key) + "'");
      }
    } catch (const std::logic_error& e) {
      fail(e.what());
    }
  }
  fail("missing *END");
  return para;  // unreachable
}

Parasitics read_spef_string(const std::string& text, const net::Design& design) {
  std::istringstream is(text);
  return read_spef(is, design);
}

}  // namespace nw::para
