// Noise origin tracing: answer "where did this glitch come from?"
//
// A violation on a net may be injected locally or may have travelled in
// through its driver from a noisy fanin cone. The trace walks the chain
// of worst propagated contributions back to the net where the glitch was
// injected and lists the aggressors of the worst combination there — the
// nets a designer would respace, shield, or retime to fix the violation.
#pragma once

#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "noise/analyzer.hpp"

namespace nw::noise {

struct NoiseTrace {
  /// From the queried net (front) back to the injection net (back): the
  /// net's origin_path (noise/analyzer.hpp).
  std::vector<ProvenanceStep> path;
  /// Aggressors in the worst combination at the injection net.
  std::vector<NetId> aggressors;
};

/// Trace the worst glitch on `net` back to its origin. Returns an empty
/// trace if the net carries no noise.
[[nodiscard]] NoiseTrace trace_origin(const Result& result, NetId net);

/// Human-readable rendering: "y2 (412.0 mV) <- via gate <- w2 (500.1 mV)
/// [aggressors: w1 w3]".
[[nodiscard]] std::string trace_string(const net::Design& design,
                                       const NoiseTrace& trace);

}  // namespace nw::noise
