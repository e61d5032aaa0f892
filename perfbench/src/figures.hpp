// Figures read off a finished analysis: executor utilization and the time
// each report renderer takes on it.
#pragma once

#include "netlist/design.hpp"
#include "noise/analyzer.hpp"

namespace perfbench {

/// Idle share of the executor's workers over its instrumented regions.
[[nodiscard]] double idle_frac(const nw::util::UtilizationSnapshot& u);

/// Busiest-worker imbalance of the per-victim estimation stage (1 = even).
[[nodiscard]] double estimate_imbalance(const nw::util::UtilizationSnapshot& u);

struct RenderTimes {
  double text_ms = 0.0;     ///< noise::write_report
  double html_ms = 0.0;     ///< noise::write_html_report
  double explain_ms = 0.0;  ///< noise::explain_string of the worst violation's net
};

/// Median of five renderings of each report from one result.
[[nodiscard]] RenderTimes time_renderers(const nw::net::Design& design,
                                         const nw::noise::Options& options,
                                         const nw::noise::Result& result);

}  // namespace perfbench
