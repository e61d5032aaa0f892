// Human-readable noise report (the tool's primary output artifact).
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "noise/delay_impact.hpp"

namespace nw::noise {

/// Row caps of the report tables.
inline constexpr std::size_t kMaxViolationRows = 50;    ///< detailed violation rows
inline constexpr std::size_t kMaxNoisyNetRows = 20;     ///< worst-net table
inline constexpr std::size_t kMaxDelayImpactRows = 20;  ///< delay-impact table

struct ReportOptions {
  /// Append the run's telemetry table (the same rendering as --stats, via
  /// write_stats) so a report file is a self-contained run record.
  bool telemetry_footer = false;
};

/// Write the full report: summary, violation table (with each endpoint's
/// sensitivity window), worst nets by peak.
void write_report(std::ostream& os, const net::Design& design, const Options& options,
                  const Result& result, const ReportOptions& ropt = {});

/// Append a delay-impact section to a report stream.
void write_delay_impact(std::ostream& os, const net::Design& design,
                        const DelayImpactSummary& impact);

/// Explain every violation on `net` from its Provenance record: ranked
/// aggressor shares (peak, coupling, window overlap, filter verdict), the
/// filtering-stage peaks with the culling stage, and the propagation path.
/// Deterministic — the rendering is bit-identical across thread counts.
/// Prints a "no violations" note (and returns false) when the net is clean.
bool write_explain(std::ostream& os, const net::Design& design, const Options& options,
                   const Result& result, NetId net);

[[nodiscard]] std::string explain_string(const net::Design& design,
                                         const Options& options, const Result& result,
                                         NetId net);

/// One-line rendering of a trace_origin result: "y2 (412.0 mV) <- w2
/// (500.1 mV) [aggressors: w1 w3]".
[[nodiscard]] std::string trace_string(const net::Design& design,
                                       const NoiseTrace& trace);

}  // namespace nw::noise
