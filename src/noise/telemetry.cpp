#include "noise/telemetry.hpp"

#include <iomanip>
#include <ostream>

namespace nw::noise {

Telemetry telemetry_from_metrics(const obs::RunMeta& meta,
                                 const obs::MetricsSnapshot& snap) {
  const auto counter = [&](const char* name) -> std::size_t {
    const obs::MetricSample* s = snap.find(name);
    return s ? static_cast<std::size_t>(s->count) : 0;
  };
  const auto gauge = [&](const char* name) -> double {
    const obs::MetricSample* s = snap.find(name);
    return s ? s->value : 0.0;
  };
  Telemetry t;
  t.threads = meta.threads;
  t.iterations = meta.iterations;
  t.context_seconds = gauge(kMetricContextSeconds);
  t.estimate_seconds = gauge(kMetricEstimateSeconds);
  t.propagate_seconds = gauge(kMetricPropagateSeconds);
  t.endpoints_seconds = gauge(kMetricEndpointsSeconds);
  t.total_seconds = gauge(kMetricTotalSeconds);
  t.victims_estimated = counter(kMetricVictimsEstimated);
  t.victims_reused = counter(kMetricVictimsReused);
  t.aggressor_pairs = counter(kMetricAggressorPairs);
  t.pairs_filtered_cap = counter(kMetricPairsFilteredCap);
  t.levels = static_cast<std::size_t>(gauge(kMetricLevels));
  t.endpoints = static_cast<std::size_t>(gauge(kMetricEndpoints));
  return t;
}

void write_stats(std::ostream& os, const Telemetry& t) {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << "analysis stats\n";
  os << "  threads               " << t.threads << "\n";
  os << "  iterations            " << t.iterations << "\n";
  os << std::fixed << std::setprecision(3);
  const auto phase = [&](const char* name, double seconds) {
    os << "  " << std::left << std::setw(20) << name << std::right << std::setw(10)
       << seconds * 1e3 << " ms\n";
  };
  phase("build-context", t.context_seconds);
  phase("estimate-injected", t.estimate_seconds);
  phase("propagate", t.propagate_seconds);
  phase("check-endpoints", t.endpoints_seconds);
  phase("total", t.total_seconds);
  os << "  victims estimated     " << t.victims_estimated << "\n";
  os << "  victims reused        " << t.victims_reused << "\n";
  os << "  aggressor pairs       " << t.aggressor_pairs << "\n";
  os << "  pairs below cap       " << t.pairs_filtered_cap << "\n";
  os << "  propagation levels    " << t.levels << "\n";
  os << "  endpoints checked     " << t.endpoints << "\n";
  os.flags(flags);
  os.precision(precision);
}

}  // namespace nw::noise
