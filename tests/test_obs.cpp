// The observability subsystem: metrics registry, span tracer, leveled
// logger, and the analyzer's use of all three — deterministic metrics
// across thread counts, phase spans once per pass, valid JSON exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/suite.hpp"
#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "noise/telemetry.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/tracer.hpp"
#include "session/json.hpp"
#include "session/stats_json.hpp"
#include "sta/sta.hpp"
#include "util/executor.hpp"
#include "util/units.hpp"

namespace nw {
namespace {

/// The member keys of a parsed object, in document order.
std::vector<std::string> keys(const session::Json& o) {
  std::vector<std::string> out;
  for (const auto& [k, v] : o.members()) out.push_back(k);
  return out;
}

// ---- registry ---------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  obs::Registry reg;
  reg.counter("c", "a counter").add(3);
  reg.counter("c", "").add(2);  // same object back
  reg.gauge("g", "a gauge", "s").set(1.5);
  auto& h = reg.histogram("h", "a histogram", {1.0, 2.0, 4.0}, "V");
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(2.0);   // bucket 1 (<= 2, inclusive upper bounds)
  h.observe(100.0); // overflow bucket

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  // Registration order is preserved.
  EXPECT_EQ(snap.samples[0].name, "c");
  EXPECT_EQ(snap.samples[1].name, "g");
  EXPECT_EQ(snap.samples[2].name, "h");

  EXPECT_EQ(snap.find("c")->count, 5u);
  EXPECT_EQ(snap.find("g")->value, 1.5);
  const obs::HistogramData& hd = snap.find("h")->hist;
  ASSERT_EQ(hd.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hd.counts[0], 1u);
  EXPECT_EQ(hd.counts[1], 1u);
  EXPECT_EQ(hd.counts[2], 0u);
  EXPECT_EQ(hd.counts[3], 1u);
  EXPECT_EQ(hd.count, 3u);
  EXPECT_DOUBLE_EQ(hd.sum, 102.5);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Metrics, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("x", "");
  EXPECT_THROW(reg.gauge("x", ""), std::logic_error);
  EXPECT_THROW(reg.histogram("x", "", {1.0}), std::logic_error);
}

TEST(Metrics, HistogramBadBoundsThrow) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, HistogramTracksExactExtremes) {
  obs::Histogram h({1.0, 2.0, 4.0});
  const obs::HistogramData empty = h.data();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min, 0.0);
  EXPECT_EQ(empty.max, 0.0);

  h.observe(1.5);
  h.observe(0.5);
  h.observe(8.0);  // overflow bucket
  h.observe(3.0);
  const obs::HistogramData d = h.data();
  EXPECT_DOUBLE_EQ(d.min, 0.5);
  EXPECT_DOUBLE_EQ(d.max, 8.0);
  EXPECT_EQ(d.count, 4u);
}

TEST(Metrics, HistogramQuantilesMonotoneAndPinned) {
  obs::HistogramData empty;
  EXPECT_EQ(obs::histogram_quantile(empty, 0.5), 0.0);

  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  h.observe(8.0);
  const obs::HistogramData d = h.data();
  // Outer edges are pinned to the exact extremes; everything in between
  // is interpolated within its bucket, monotone, and clamped to [min, max].
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(d, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(d, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(d, -3.0), 0.5);  // q clamps
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(d, 7.0), 8.0);
  const double p50 = obs::histogram_quantile(d, 0.50);
  const double p95 = obs::histogram_quantile(d, 0.95);
  const double p99 = obs::histogram_quantile(d, 0.99);
  EXPECT_GE(p50, d.min);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, d.max);

  // A single observation collapses the whole summary onto that value.
  obs::Histogram one({1.0, 2.0});
  one.observe(1.25);
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(one.data(), q), 1.25);
  }
}

TEST(Metrics, ResourceMetricsAreForcedNondeterministic) {
  obs::Registry reg;
  // resource = true overrides deterministic = true: RSS and byte gauges can
  // never silently join the bit-identical sections.
  reg.gauge("rss_bytes", "", "B", /*deterministic=*/true, /*resource=*/true)
      .set(4096.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_TRUE(snap.samples[0].resource);
  EXPECT_FALSE(snap.samples[0].deterministic);
}

TEST(Metrics, StatsJsonParsesAndSeparatesTiming) {
  obs::Registry reg;
  reg.counter("work_items", "").add(7);
  reg.gauge("levels", "").set(3.0);
  reg.gauge("wall_seconds", "", "s", /*deterministic=*/false).set(0.25);
  reg.histogram("dist", "", {1.0, 2.0}).observe(1.5);

  obs::RunMeta meta;
  meta.design = "d\"quoted\"";
  meta.mode = "noise-windows";
  meta.model = "two-pi";
  meta.options_digest = "abc123";
  meta.build = obs::build_version();
  meta.threads = 4;
  meta.iterations = 2;

  std::ostringstream os;
  session::write_stats_json(os, meta, reg.snapshot());
  const std::optional<session::Json> doc = session::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const session::Json& m = *doc->find("meta");
  EXPECT_EQ(m.find("schema_version")->as_number(), 6.0);
  EXPECT_EQ(m.find("design")->as_string(), "d\"quoted\"");
  EXPECT_EQ(m.find("threads")->as_number(), 4.0);
  EXPECT_EQ(m.find("iterations")->as_number(), 2.0);
  EXPECT_EQ(doc->find("counters")->find("work_items")->as_number(), 7.0);
  EXPECT_EQ(doc->find("gauges")->find("levels")->as_number(), 3.0);
  // The nondeterministic gauge lands in "timing", not in "gauges".
  EXPECT_EQ(doc->find("gauges")->find("wall_seconds"), nullptr);
  EXPECT_EQ(doc->find("timing")->find("wall_seconds")->as_number(), 0.25);
  // v2: histograms carry the exact extremes and the quantile summary.
  const session::Json& dist = *doc->find("histograms")->find("dist");
  EXPECT_EQ(keys(dist), (std::vector<std::string>{"unit", "bounds", "counts", "count",
                                                  "sum", "min", "max", "p50", "p95",
                                                  "p99"}));
  EXPECT_EQ(dist.find("count")->as_number(), 1.0);
  EXPECT_EQ(dist.find("min")->as_number(), 1.5);
  EXPECT_EQ(dist.find("max")->as_number(), 1.5);
  for (const char* q : {"p50", "p95", "p99"}) {
    EXPECT_EQ(dist.find(q)->as_number(), 1.5) << q;
  }
}

TEST(Metrics, StatsJsonV2ResourcesAndExtraSections) {
  obs::Registry reg;
  reg.counter("work_items", "").add(7);
  reg.gauge("rss_bytes", "", "B", /*deterministic=*/false, /*resource=*/true)
      .set(4096.0);
  reg.gauge("wall_seconds", "", "s", /*deterministic=*/false).set(0.25);

  obs::RunMeta meta;
  meta.design = "d";
  meta.mode = "noise-windows";
  meta.model = "two-pi";
  meta.options_digest = "abc123";
  meta.build = obs::build_version();

  session::Json slowlog = session::Json::object();
  slowlog.set("threshold_ms", 5);
  slowlog.set("entries", session::Json::array());
  session::Json bench = session::Json::object();
  bench.set("record_version", 1);
  session::Json extra = session::Json::object();
  extra.set("slowlog", slowlog);
  extra.set("bench", bench);
  std::ostringstream os;
  session::write_stats_json(os, meta, reg.snapshot(), extra);
  const std::optional<session::Json> doc = session::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();

  // Resource gauges get their own section, after gauges and before timing;
  // they appear in neither of the other two. Caller-built extra sections
  // append in order at the end.
  EXPECT_EQ(keys(*doc),
            (std::vector<std::string>{"meta", "counters", "gauges", "histograms",
                                      "resources", "timing", "memory", "slowlog",
                                      "bench"}));
  EXPECT_EQ(doc->find("resources")->find("rss_bytes")->as_number(), 4096.0);
  EXPECT_EQ(doc->find("gauges")->find("rss_bytes"), nullptr);
  EXPECT_EQ(doc->find("timing")->find("rss_bytes"), nullptr);
  EXPECT_EQ(doc->find("slowlog")->dump(), slowlog.dump());
  EXPECT_EQ(doc->find("bench")->dump(), bench.dump());
}

// ---- resource sampler -------------------------------------------------------

TEST(Resources, SamplerSeesTheLiveProcess) {
  const obs::ResourceSample s = obs::sample_resources();
#if defined(__linux__)
  // /proc/self/status is authoritative here: a running test binary has
  // resident pages, and the high-water mark can only be at least that.
  EXPECT_GT(s.rss_bytes, 0u);
  EXPECT_GT(s.peak_rss_bytes, 0u);
#endif
  EXPECT_GE(s.peak_rss_bytes, s.rss_bytes);
}

// ---- analyzer metrics -------------------------------------------------------

[[nodiscard]] std::vector<obs::MetricSample> deterministic_samples(
    const obs::MetricsSnapshot& snap) {
  std::vector<obs::MetricSample> out;
  for (const auto& s : snap.samples) {
    if (s.deterministic) out.push_back(s);
  }
  return out;
}

void expect_metrics_identical(const obs::MetricsSnapshot& a,
                              const obs::MetricsSnapshot& b) {
  const auto da = deterministic_samples(a);
  const auto db = deterministic_samples(b);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    SCOPED_TRACE("metric " + da[i].name);
    EXPECT_EQ(da[i].name, db[i].name);
    EXPECT_EQ(da[i].kind, db[i].kind);
    EXPECT_EQ(da[i].count, db[i].count);
    EXPECT_EQ(da[i].value, db[i].value);  // bit-identical, not NEAR
    EXPECT_EQ(da[i].hist.bounds, db[i].hist.bounds);
    EXPECT_EQ(da[i].hist.counts, db[i].hist.counts);
    EXPECT_EQ(da[i].hist.count, db[i].hist.count);
    EXPECT_EQ(da[i].hist.sum, db[i].hist.sum);
    EXPECT_EQ(da[i].hist.min, db[i].hist.min);
    EXPECT_EQ(da[i].hist.max, db[i].hist.max);
  }
}

class MetricsDeterminism
    : public ::testing::TestWithParam<noise::AnalysisMode> {};

TEST_P(MetricsDeterminism, IdenticalAcrossThreadCounts) {
  const lib::Library library = lib::default_library();
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 10;
  cfg.gates = 200;
  cfg.levels = 5;
  cfg.coupling_prob = 0.6;
  cfg.dff_fraction = 0.3;
  cfg.seed = 23;
  const gen::Generated g = gen::make_rand_logic(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  noise::Options o;
  o.mode = GetParam();
  o.clock_period = g.sta_options.clock_period;
  o.threads = 1;
  const noise::Result serial = noise::analyze(g.design, g.para, timing, o);
  EXPECT_EQ(serial.run_meta.threads, 1);
  for (const int threads : {2, 8}) {
    o.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const noise::Result parallel = noise::analyze(g.design, g.para, timing, o);
    EXPECT_EQ(parallel.run_meta.threads, threads);
    // Same work, same digests — only the threads field may differ.
    EXPECT_EQ(parallel.run_meta.options_digest, serial.run_meta.options_digest);
    expect_metrics_identical(serial.metrics, parallel.metrics);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, MetricsDeterminism,
    ::testing::Values(noise::AnalysisMode::kNoFiltering,
                      noise::AnalysisMode::kSwitchingWindows,
                      noise::AnalysisMode::kNoiseWindows),
    [](const ::testing::TestParamInfo<noise::AnalysisMode>& info) {
      switch (info.param) {
        case noise::AnalysisMode::kNoFiltering: return "NoFiltering";
        case noise::AnalysisMode::kSwitchingWindows: return "SwitchingWindows";
        case noise::AnalysisMode::kNoiseWindows: return "NoiseWindows";
      }
      return "Unknown";
    });

TEST(AnalyzerMetrics, TelemetryIsAViewOverTheSnapshot) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_bus(library, {});
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.clock_period = g.sta_options.clock_period;
  const noise::Result r = noise::analyze(g.design, g.para, timing, o);

  ASSERT_NE(r.metrics.find(noise::kMetricVictimsEstimated), nullptr);
  EXPECT_EQ(r.telemetry.victims_estimated,
            r.metrics.find(noise::kMetricVictimsEstimated)->count);
  EXPECT_EQ(r.telemetry.levels,
            static_cast<std::size_t>(r.metrics.find(noise::kMetricLevels)->value));
  EXPECT_EQ(r.telemetry.endpoints,
            static_cast<std::size_t>(r.metrics.find(noise::kMetricEndpoints)->value));
  EXPECT_EQ(r.telemetry.threads, r.run_meta.threads);
  EXPECT_EQ(static_cast<std::size_t>(
                r.metrics.find(noise::kMetricViolations)->value),
            r.violations.size());
  // The glitch-peak histogram covers exactly the nets with noise.
  std::size_t noisy = 0;
  for (const auto& nn : r.nets) noisy += nn.total_peak > 0.0;
  EXPECT_EQ(r.metrics.find(noise::kMetricGlitchPeak)->hist.count, noisy);
  // Executor chunks were observed and the meta identifies the run.
  EXPECT_GT(r.metrics.find(noise::kMetricExecutorTasks)->count, 0u);
  EXPECT_EQ(r.run_meta.design, "bus64");
  EXPECT_FALSE(r.run_meta.options_digest.empty());
  EXPECT_EQ(r.run_meta.build, obs::build_version());
}

TEST(OptionsDigest, StableSensitiveAndThreadBlind) {
  const noise::Options a;
  noise::Options b;
  EXPECT_EQ(noise::options_digest(a), noise::options_digest(b));
  EXPECT_EQ(noise::options_digest(a).size(), 16u);  // zero-padded hex64
  b.min_peak *= 2;
  EXPECT_NE(noise::options_digest(a), noise::options_digest(b));
  noise::Options c;
  c.threads = 8;  // excluded: results are thread-count independent
  EXPECT_EQ(noise::options_digest(a), noise::options_digest(c));
  noise::Options d;
  const NetId group[] = {NetId{1}, NetId{2}};
  d.constraints.add_mutex_group(group);
  EXPECT_NE(noise::options_digest(a), noise::options_digest(d));
}

// ---- tracer -----------------------------------------------------------------

/// Per-tid well-nestedness: sorted by (start, -end), every span must lie
/// entirely inside or entirely outside the enclosing one.
void expect_well_nested(const std::vector<obs::TraceEvent>& events) {
  std::vector<int> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  for (const int tid : tids) {
    std::vector<std::pair<std::int64_t, std::int64_t>> ivals;
    for (const auto& e : events) {
      if (e.tid == tid) ivals.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
    }
    std::sort(ivals.begin(), ivals.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first : a.second > b.second;
              });
    std::vector<std::int64_t> stack;
    for (const auto& [start, end] : ivals) {
      while (!stack.empty() && start >= stack.back()) stack.pop_back();
      EXPECT_TRUE(stack.empty() || end <= stack.back())
          << "tid " << tid << ": span [" << start << "," << end
          << "] straddles enclosing span ending at " << stack.back();
      stack.push_back(end);
    }
  }
}

TEST(TraceEvents, PhasesAppearOncePerPassAndNest) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_bus(library, {});
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  obs::Tracer::clear();
  obs::Tracer::enable();
  noise::Options o;
  o.clock_period = g.sta_options.clock_period;
  o.refine_iterations = 2;
  o.threads = 2;
  const noise::Result r = noise::analyze(g.design, g.para, timing, o);
  obs::Tracer::disable();

  const std::vector<obs::TraceEvent> events = obs::Tracer::events();
  ASSERT_FALSE(events.empty());
  const auto count = [&](std::string_view name, obs::SpanKind kind) {
    std::size_t n = 0;
    for (const auto& e : events) n += e.name == name && e.kind == kind;
    return n;
  };
  const auto passes = static_cast<std::size_t>(r.iterations);
  EXPECT_EQ(count("estimate-injected", obs::SpanKind::kPhase), passes);
  EXPECT_EQ(count("propagate", obs::SpanKind::kPhase), passes);
  EXPECT_EQ(count("check-endpoints", obs::SpanKind::kPhase), passes);
  EXPECT_EQ(count("build-context", obs::SpanKind::kPhase), 1u);
  EXPECT_EQ(count("iteration 1", obs::SpanKind::kIteration), 1u);
  // Executor chunks were traced too.
  std::size_t tasks = 0;
  for (const auto& e : events) tasks += e.kind == obs::SpanKind::kTask;
  EXPECT_GT(tasks, 0u);

  expect_well_nested(events);

  std::ostringstream os;
  obs::Tracer::write_chrome(os);
  const std::optional<session::Json> doc = session::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str().substr(0, 400);
  const session::Json* trace_events = doc->find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  std::size_t thread_names = 0;
  std::size_t estimates = 0;
  for (const session::Json& e : trace_events->items()) {
    const std::string& name = e.find("name")->as_string();
    thread_names += name == "thread_name" && e.find("ph")->as_string() == "M";
    estimates += name == "estimate-injected" && e.find("cat") != nullptr &&
                 e.find("cat")->as_string() == "phase";
  }
  EXPECT_GT(thread_names, 0u);
  EXPECT_EQ(estimates, passes);
  obs::Tracer::clear();
}

TEST(TraceEvents, DisabledTracerRecordsNothing) {
  obs::Tracer::clear();
  ASSERT_FALSE(obs::trace_enabled());
  { const obs::Span s("should-not-appear"); }
  EXPECT_TRUE(obs::Tracer::events().empty());
}

/// Busy-waits until the steady clock has advanced by at least `ns`, so a
/// span around it measures a strictly positive duration.
void spin_ns(std::int64_t ns) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < std::chrono::nanoseconds(ns)) {
  }
}

TEST(SinkSpan, AccumulatesWithEveryConsumerOff) {
  obs::Tracer::clear();
  ASSERT_FALSE(obs::trace_enabled());
  ASSERT_FALSE(obs::profile_enabled());
  double seconds = 0.0;
  {
    const obs::Span s("sink-probe", obs::SpanKind::kPhase, &seconds);
    spin_ns(20000);
  }
  const double first = seconds;
  EXPECT_GE(first, 20e-6);
  {
    const obs::Span s("sink-probe", obs::SpanKind::kPhase, &seconds);
    spin_ns(20000);
  }
  EXPECT_GE(seconds, first + 20e-6);  // added to, never overwritten
  // Timing is not tracing: neither span left an event behind.
  EXPECT_TRUE(obs::Tracer::events().empty());
}

TEST(SinkSpan, TracedEventAndSinkShareOneClockPair) {
  obs::Tracer::clear();
  obs::Tracer::enable();
  double seconds = 0.0;
  {
    const obs::Span s("sink-traced", obs::SpanKind::kPhase, &seconds);
    spin_ns(20000);
  }
  obs::Tracer::disable();
  const std::vector<obs::TraceEvent> events = obs::Tracer::events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "sink-traced");
  EXPECT_GE(events[0].dur_ns, 20000);
  EXPECT_EQ(static_cast<double>(events[0].dur_ns) * 1e-9, seconds);
  obs::Tracer::clear();
}

TEST(SinkSpan, UntracedSpanWithoutSinkRecordsNothing) {
  obs::Tracer::clear();
  ASSERT_FALSE(obs::trace_enabled());
  {
    const obs::Span s("no-sink-untraced", obs::SpanKind::kLevel);
    spin_ns(1000);
  }
  EXPECT_TRUE(obs::Tracer::events().empty());
}

/// The analyzer's timing surface on D5-logic10k: phase gauges come from
/// the phase spans' sinks, executor_tasks from the utilization snapshot.
struct Logic10k {
  lib::Library library = lib::default_library();
  gen::Generated g = gen::make_rand_logic(library, bench::logic_config(10000));
  sta::Result timing = sta::run(g.design, g.para, g.sta_options);
};

noise::Result analyze_logic10k(int threads) {
  static const Logic10k d;
  noise::Options o;
  o.clock_period = d.g.sta_options.clock_period;
  o.threads = threads;
  return noise::analyze(d.g.design, d.g.para, d.timing, o);
}

double gauge(const noise::Result& r, const char* name) {
  const obs::MetricSample* s = r.metrics.find(name);
  EXPECT_NE(s, nullptr) << name;
  return s != nullptr ? s->value : 0.0;
}

void expect_tasks_match_regions(const noise::Result& r) {
  std::uint64_t chunks = 0;
  for (const util::RegionStats& region : r.executor.regions) chunks += region.chunks;
  EXPECT_GT(chunks, 0u);
  EXPECT_EQ(r.metrics.find(noise::kMetricExecutorTasks)->count, chunks);
}

/// Each analyzer phase span and the timing gauge its sink feeds.
constexpr std::pair<const char*, const char*> kPhaseSpans[] = {
    {"build-context", noise::kMetricContextSeconds},
    {"estimate-injected", noise::kMetricEstimateSeconds},
    {"propagate", noise::kMetricPropagateSeconds},
    {"check-endpoints", noise::kMetricEndpointsSeconds}};

TEST(AnalyzerTiming, PhaseGaugesArePositiveAndWithinTotal) {
  const noise::Result r = analyze_logic10k(1);
  double sum = 0.0;
  for (const auto& [span_name, metric] : kPhaseSpans) {
    EXPECT_GT(gauge(r, metric), 0.0) << metric;
    sum += gauge(r, metric);
  }
  EXPECT_LE(sum, gauge(r, noise::kMetricTotalSeconds));
  EXPECT_FALSE(r.attribution.top_levels.empty());
  expect_tasks_match_regions(r);
}

TEST(AnalyzerTiming, TracedPhaseGaugesEqualTheirSpans) {
  obs::Tracer::clear();
  obs::Tracer::enable();
  const noise::Result r = analyze_logic10k(4);
  obs::Tracer::disable();
  const std::vector<obs::TraceEvent> events = obs::Tracer::events();
  obs::Tracer::clear();
  for (const auto& [span_name, metric] : kPhaseSpans) {
    double spans_s = 0.0;
    std::size_t n = 0;
    for (const obs::TraceEvent& e : events) {
      if (e.kind != obs::SpanKind::kPhase || e.name != span_name) continue;
      spans_s += static_cast<double>(e.dur_ns) * 1e-9;
      ++n;
    }
    EXPECT_GE(n, 1u) << span_name;
    const double g = gauge(r, metric);
    EXPECT_NEAR(g, spans_s, 1e-9 * g) << metric;
  }
  EXPECT_FALSE(r.attribution.top_levels.empty());
  expect_tasks_match_regions(r);
}

TEST(TraceEvents, BufferedBytesAccountForRecordedSpans) {
  obs::Tracer::clear();
  obs::Tracer::enable();
  for (int i = 0; i < 64; ++i) {
    const obs::Span s("buffered-bytes-probe", obs::SpanKind::kRequest);
  }
  obs::Tracer::disable();
  // The gauge is an estimate of live buffer memory, so it must at least
  // cover the recorded events themselves.
  EXPECT_GE(obs::Tracer::buffered_bytes(), 64 * sizeof(obs::TraceEvent));
  EXPECT_EQ(obs::Tracer::events().size(), 64u);
  obs::Tracer::clear();
}

// ---- logger -----------------------------------------------------------------

/// Installs a capture sink and restores defaults on scope exit.
class CaptureLog {
 public:
  explicit CaptureLog(obs::LogLevel level) : saved_(obs::log_level()) {
    obs::set_log_sink(&os_);
    obs::set_log_level(level);
  }
  ~CaptureLog() {
    obs::set_log_sink(nullptr);
    obs::set_log_level(saved_);
  }
  [[nodiscard]] std::string text() const { return os_.str(); }

 private:
  obs::LogLevel saved_;
  std::ostringstream os_;
};

TEST(Log, LevelFilteringSkipsArgumentEvaluation) {
  CaptureLog capture(obs::LogLevel::kWarn);
  int evaluations = 0;
  const auto touch = [&] {
    ++evaluations;
    return 1;
  };
  NW_LOG(kDebug) << "hidden " << touch();
  EXPECT_EQ(evaluations, 0);  // disabled level: stream args never run
  NW_LOG(kWarn) << "visible " << touch();
  EXPECT_EQ(evaluations, 1);
  const std::string text = capture.text();
  EXPECT_EQ(text.find("hidden"), std::string::npos);
  EXPECT_NE(text.find("[nw:warn]"), std::string::npos);
  EXPECT_NE(text.find("visible 1"), std::string::npos);
}

TEST(Log, RateLimitsHotSites) {
  CaptureLog capture(obs::LogLevel::kInfo);
  for (int i = 0; i < 200; ++i) {
    NW_LOG(kInfo) << "hot " << i;
  }
  const std::string text = capture.text();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  // First kLogBurst=8 always log; then every kLogEvery=64th hit:
  // n in {8, 72, 136} => 11 lines total, 2 with a suppression note.
  EXPECT_EQ(lines, 11u);
  std::size_t notes = 0;
  for (std::size_t at = text.find("similar suppressed"); at != std::string::npos;
       at = text.find("similar suppressed", at + 1)) {
    ++notes;
  }
  EXPECT_EQ(notes, 2u);
  EXPECT_NE(text.find("(63 similar suppressed)"), std::string::npos);
}

TEST(Log, ConcurrentHotSiteExactAdmissionAndNoInterleaving) {
  CaptureLog capture(obs::LogLevel::kInfo);
  constexpr int kThreads = 8;
  constexpr int kHitsPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // One lambda expression = one NW_LOG call site = one shared LogSite;
    // all 400 hits contend on the same atomic admission counter.
    workers.emplace_back([t] {
      for (int i = 0; i < kHitsPerThread; ++i) {
        NW_LOG(kInfo) << "spin t" << t << " i" << i;
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::string text = capture.text();
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = text.find('\n', at);
    ASSERT_NE(nl, std::string::npos) << "sink must end every line";
    lines.push_back(text.substr(at, nl - at));
    at = nl + 1;
  }
  // Admission is a pure function of the hit index n, so the count is exact
  // no matter how the threads interleave: n < 8 always logs (8 lines), then
  // n = 8 + 64k for k = 0..6 inside 400 hits (7 more).
  EXPECT_EQ(lines.size(), 15u);
  std::size_t notes = 0;
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    // Flushed under one mutex: every line is exactly one whole message
    // (wall-clock stamp, then the level token, then the payload).
    const std::size_t level_at = line.find("[nw:info]");
    ASSERT_NE(level_at, std::string::npos);
    EXPECT_EQ(line.find("[nw:info]", level_at + 1), std::string::npos);
    EXPECT_NE(line.find("spin t", level_at), std::string::npos);
    EXPECT_EQ(line.find("spin", line.find("spin") + 1), std::string::npos);
    notes += line.find("(63 similar suppressed)") != std::string::npos;
  }
  // The first periodic admission (n = 8) has nothing suppressed before it;
  // the other six each report a full 63-hit gap.
  EXPECT_EQ(notes, 6u);
}

}  // namespace
}  // namespace nw
