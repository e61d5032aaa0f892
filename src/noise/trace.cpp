#include "noise/trace.hpp"

#include <sstream>
#include <stdexcept>

#include "report/table.hpp"

namespace nw::noise {

NoiseTrace trace_origin(const Result& result, NetId net) {
  if (net.index() >= result.nets.size()) {
    throw std::invalid_argument("trace_origin: bad net id");
  }
  NoiseTrace trace;
  trace.path = origin_path(result, net);
  // The injection point is wherever the walk stopped — the last path entry.
  // Collecting here guarantees aggressors are reported on every exit: the
  // natural end of the chain, a single-step query where the asked-about
  // net IS the injection net, and a walk cut short by the visited guard.
  if (!trace.path.empty()) {
    const NetNoise& origin = result.nets[trace.path.back().net.index()];
    for (const auto& c : origin.contributions) {
      if (c.in_worst && !c.is_propagated()) trace.aggressors.push_back(c.aggressor);
    }
  }
  return trace;
}

std::string trace_string(const net::Design& design, const NoiseTrace& trace) {
  std::ostringstream os;
  for (std::size_t i = 0; i < trace.path.size(); ++i) {
    if (i > 0) os << " <- ";
    const ProvenanceStep& s = trace.path[i];
    os << design.net(s.net).name << " (" << report::fmt_mv(s.peak) << ")";
  }
  if (!trace.aggressors.empty()) {
    os << " [aggressors:";
    for (const NetId a : trace.aggressors) os << ' ' << design.net(a).name;
    os << "]";
  }
  return os.str();
}

}  // namespace nw::noise
