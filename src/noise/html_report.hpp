// Self-contained HTML noise dashboard (the --html-report artifact).
//
// One file, no external references: a single <style> block, inline SVG
// charts (report/svg.hpp), no scripts. Sections, each with a fixed id
// that tools/validate_obs.py --html-report requires:
//   #meta       run identity (design, mode, model, options digest, build)
//   #summary    headline counts (violations, endpoints, noisy nets, ...)
//   #timelines  noise-window vs sensitivity-window spans, top-K violations
//   #pareto     aggressor Pareto over the in-worst provenance shares
//   #slack      endpoint noise-slack histogram (violations left of zero)
//   #executor   per-worker utilization, per-region imbalance, attribution
//   #flame      static SVG flamegraph of the sampled span stacks
//   #live       telemetry sparklines from the timeseries ring (--sample-ms)
//   #phases     stats-v2 phase/latency tables from the metrics snapshot
#pragma once

#include <iosfwd>
#include <vector>

#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"

namespace nw::noise {

struct HtmlReportOptions {
  /// Folded span stacks for the #flame panel (obs::Profiler::snapshot).
  /// Empty = profiling off; the panel renders a "profiling disabled" note.
  std::vector<obs::FoldedEntry> profile;
  /// Telemetry ring snapshot for the #live panel (one sparkline per series).
  /// Empty = sampling off; the panel renders a "sampling disabled" note.
  obs::TimeSeriesSnapshot timeseries;
};

/// Render the dashboard for one analysis run. Chart content is derived
/// from the Result's deterministic fields (violations, provenance,
/// slacks); only the #phases tables carry wall-time values.
void write_html_report(std::ostream& os, const net::Design& design,
                       const Options& options, const Result& result,
                       const HtmlReportOptions& hopt = {});

}  // namespace nw::noise
