#include "session/stats_json.hpp"

#include <ctime>
#include <ostream>
#include <utility>
#include <vector>

#include "noise/analyzer.hpp"
#include "obs/memtrack.hpp"
#include "obs/resource.hpp"

namespace nw::session {

namespace {

template <class Range>
Json array_of(const Range& values) {
  Json a = Json::array();
  for (const auto& v : values) a.push_back(v);
  return a;
}

Json sample_json(const obs::MetricSample& s) {
  const obs::HistogramData& h = s.hist;
  switch (s.kind) {
    case obs::MetricSample::Kind::kCounter: return s.count;
    case obs::MetricSample::Kind::kGauge: return s.value;
    case obs::MetricSample::Kind::kHistogram:
      return Json::object({{"unit", s.unit}, {"bounds", array_of(h.bounds)},
                           {"counts", array_of(h.counts)}, {"count", h.count},
                           {"sum", h.sum}, {"min", h.min}, {"max", h.max},
                           {"p50", obs::histogram_quantile(h, 0.50)},
                           {"p95", obs::histogram_quantile(h, 0.95)},
                           {"p99", obs::histogram_quantile(h, 0.99)}});
  }
  return {};
}

/// The snapshot's metrics that `include` selects, keyed by name.
template <class Include>
Json metric_section(const obs::MetricsSnapshot& snap, Include include) {
  Json o = Json::object();
  for (const obs::MetricSample& s : snap.samples) {
    if (include(s)) o.set(s.name, sample_json(s));
  }
  return o;
}

}  // namespace

Json memory_json() {
  Json accounts = Json::object();
  std::uint64_t total_current = 0;
  std::uint64_t total_peak = 0;
  for (const obs::MemAccountSample& a : obs::MemTracker::snapshot()) {
    accounts.set(a.name, Json::object({{"current_bytes", a.current_bytes},
                                       {"peak_bytes", a.peak_bytes},
                                       {"allocs", a.allocs},
                                       {"frees", a.frees}}));
    total_current += a.current_bytes;
    total_peak += a.peak_bytes;
  }
  Json o = Json::object({{"enabled", obs::MemTracker::enabled()}});
  o.set("accounts", std::move(accounts));
  o.set("total_current_bytes", total_current);
  o.set("total_peak_bytes", total_peak);
  return o;
}

Json timeseries_json(const obs::TimeSeriesSnapshot& ts) {
  Json samples = Json::array();
  for (const obs::TimeSample& sample : ts.samples) {
    samples.push_back(Json::object({{"t_ms", sample.t_ms}, {"v", array_of(sample.v)}}));
  }
  Json o = Json::object({{"interval_ms", ts.interval_ms},
                         {"capacity", ts.capacity},
                         {"total", ts.total},
                         {"series", array_of(ts.series)}});
  o.set("samples", std::move(samples));
  return o;
}

Json executor_json(const noise::Result& result) {
  const util::UtilizationSnapshot& ex = result.executor;
  Json workers = Json::array();
  for (const util::WorkerStats& w : ex.workers) {
    workers.push_back(Json::object({{"worker", w.worker}, {"busy_s", w.busy_s},
                                    {"idle_s", w.idle_s}, {"chunks", w.chunks}}));
  }
  Json regions = Json::object();
  for (const util::RegionStats& r : ex.regions) {
    regions.set(r.label, Json::object({{"invocations", r.invocations},
                                       {"chunks", r.chunks},
                                       {"items", r.items},
                                       {"wall_s", r.wall_s},
                                       {"busy_s", r.busy_s},
                                       {"max_busy_s", r.max_busy_s},
                                       {"wait_s", r.wait_s},
                                       {"imbalance", r.imbalance(ex.threads)}}));
  }
  Json top_levels = Json::array();
  for (const noise::WorkAttribution::LevelCost& l : result.attribution.top_levels) {
    top_levels.push_back(Json::object(
        {{"level", l.level}, {"instances", l.instances}, {"wall_ms", l.wall_ms}}));
  }
  Json top_nets = Json::array();
  for (const noise::WorkAttribution::NetCost& n : result.attribution.top_nets) {
    top_nets.push_back(
        Json::object({{"net", n.net}, {"aggressors", n.aggressors}, {"peak", n.peak}}));
  }
  Json attribution = Json::object();
  attribution.set("top_levels", std::move(top_levels));
  attribution.set("top_nets", std::move(top_nets));
  Json o = Json::object({{"enabled", ex.enabled}, {"threads", ex.threads},
                         {"wall_s", ex.wall_s}});
  o.set("workers", std::move(workers));
  o.set("regions", std::move(regions));
  o.set("attribution", std::move(attribution));
  return o;
}

Json bench_record_json() {
  const std::time_t now = std::time(nullptr);
  char utc[32] = "unknown";
  if (std::tm tm{}; gmtime_r(&now, &tm) != nullptr) {
    std::strftime(utc, sizeof utc, "%Y-%m-%dT%H:%M:%SZ", &tm);
  }
  return Json::object({{"record_version", 1},
                       {"git_sha", obs::git_sha()},
                       {"git_describe", obs::build_version()},
                       {"build_type", obs::build_type()},
                       {"timestamp_utc", utc},
                       {"unix_time", static_cast<double>(now)},
                       {"peak_rss_bytes", obs::sample_resources().peak_rss_bytes}});
}

void write_stats_json(std::ostream& os, const obs::RunMeta& meta,
                      const obs::MetricsSnapshot& snap, Json extra) {
  Json doc = Json::object({{"meta", Json::object({
                                        {"schema_version", obs::kStatsSchemaVersion},
                                        {"design", meta.design},
                                        {"mode", meta.mode},
                                        {"model", meta.model},
                                        {"options_digest", meta.options_digest},
                                        {"build", meta.build},
                                        {"threads", meta.threads},
                                        {"iterations", meta.iterations},
                                    })}});
  // Section membership is a partition: deterministic metrics split by kind,
  // resource metrics get their own section, and the remaining
  // nondeterministic ones are timing.
  using Kind = obs::MetricSample::Kind;
  doc.set("counters", metric_section(snap, [](const obs::MetricSample& s) {
            return s.deterministic && s.kind == Kind::kCounter;
          }));
  doc.set("gauges", metric_section(snap, [](const obs::MetricSample& s) {
            return s.deterministic && s.kind == Kind::kGauge;
          }));
  doc.set("histograms", metric_section(snap, [](const obs::MetricSample& s) {
            return s.deterministic && s.kind == Kind::kHistogram;
          }));
  doc.set("resources",
          metric_section(snap, [](const obs::MetricSample& s) { return s.resource; }));
  doc.set("timing", metric_section(snap, [](const obs::MetricSample& s) {
            return !s.deterministic && !s.resource;
          }));
  doc.set("memory", memory_json());
  for (const auto& [k, v] : extra.members()) doc.set(k, v);
  os << doc.dump() << '\n';
}

}  // namespace nw::session
