#include "spice/deck.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

namespace nw::spice {

void write_deck(std::ostream& os, const Circuit& ckt, const DeckOptions& opt) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "* " << opt.title << "\n";
  std::size_t idx = 0;
  for (const auto& r : ckt.resistors()) {
    os << "R" << idx++ << ' ' << ckt.node_name(r.a) << ' ' << ckt.node_name(r.b)
       << ' ' << r.r << "\n";
  }
  idx = 0;
  for (const auto& c : ckt.capacitors()) {
    os << "C" << idx++ << ' ' << ckt.node_name(c.a) << ' ' << ckt.node_name(c.b)
       << ' ' << c.c << "\n";
  }
  idx = 0;
  for (const auto& v : ckt.vsources()) {
    os << "V" << idx++ << ' ' << ckt.node_name(v.pos) << ' ' << ckt.node_name(v.neg)
       << " PWL(";
    bool first = true;
    for (const auto& p : v.wave.points()) {
      if (!first) os << ' ';
      os << p.t << ' ' << p.v;
      first = false;
    }
    os << ")\n";
  }
  os << ".tran " << opt.tran.dt << ' ' << opt.tran.t_stop << "\n";
  if (!opt.probes.empty()) {
    os << ".print tran";
    for (const auto n : opt.probes) os << " v(" << ckt.node_name(n) << ")";
    os << "\n";
  }
  os << ".end\n";
}

std::string write_deck_string(const Circuit& ckt, const DeckOptions& opt) {
  std::ostringstream os;
  write_deck(os, ckt, opt);
  return os.str();
}

}  // namespace nw::spice
