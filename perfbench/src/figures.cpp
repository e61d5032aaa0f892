#include "figures.hpp"

#include <sstream>

#include "common.hpp"
#include "noise/html_report.hpp"
#include "noise/report_writer.hpp"

namespace perfbench {

using namespace nw;

double idle_frac(const util::UtilizationSnapshot& u) {
  double busy = 0.0;
  double idle = 0.0;
  for (const util::WorkerStats& w : u.workers) {
    busy += w.busy_s;
    idle += w.idle_s;
  }
  return busy + idle > 0.0 ? idle / (busy + idle) : 0.0;
}

double estimate_imbalance(const util::UtilizationSnapshot& u) {
  for (const util::RegionStats& r : u.regions) {
    if (r.label == "estimate-injected") return r.imbalance(u.threads);
  }
  return 0.0;
}

RenderTimes time_renderers(const net::Design& design, const noise::Options& options,
                           const noise::Result& result) {
  const NetId worst = result.violations.empty() ? NetId{0} : result.violations.front().net;
  std::vector<double> text_ms, html_ms, explain_ms;
  for (int i = 0; i < 5; ++i) {
    auto t0 = Clock::now();
    std::ostringstream text;
    noise::write_report(text, design, options, result);
    text_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    std::ostringstream html;
    noise::write_html_report(html, design, options, result);
    html_ms.push_back(seconds_since(t0) * 1e3);
    t0 = Clock::now();
    (void)noise::explain_string(design, options, result, worst);
    explain_ms.push_back(seconds_since(t0) * 1e3);
  }
  return {median(text_ms), median(html_ms), median(explain_ms)};
}

}  // namespace perfbench
