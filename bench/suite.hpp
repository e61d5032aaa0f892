// Shared testcase suite for the reconstructed experiments (DESIGN.md R-T1).
//
// Six designs spanning the regimes the paper-class evaluation covers:
// regular buses (dense, structured coupling with staggered timing),
// random logic clouds (irregular coupling, deep propagation), and a
// register pipeline (sequential endpoints for the latch check).
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/bus.hpp"
#include "gen/pipeline.hpp"
#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "noise/html_report.hpp"
#include "noise/report_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "session/stats_json.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace nw::bench {

struct Case {
  std::string name;
  gen::Generated generated;
};

/// D1/D2/D3: buses of growing width. Strong coupling + weak holders so
/// that the unfiltered analysis reports real violations.
inline gen::BusConfig bus_config(std::size_t bits) {
  gen::BusConfig cfg;
  cfg.bits = bits;
  cfg.segments = 4;
  cfg.coupling_adj = 5 * FF;
  cfg.coupling_2nd = 1.5 * FF;
  cfg.coupling_jitter = 0.5;
  cfg.port_res = 2500.0;
  cfg.drive_jitter = 0.5;
  // Partially overlapping arrival groups: adjacent aggressors can sometimes
  // align (so switching windows filter much, not all, of the pessimism).
  cfg.stagger_groups = 4;
  cfg.stagger = 250 * PS;
  cfg.window_width = 60 * PS;
  cfg.jitter = 140 * PS;
  cfg.seed = bits;
  return cfg;
}

/// D4/D5: random logic clouds.
inline gen::RandLogicConfig logic_config(std::size_t gates) {
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 32;
  cfg.gates = gates;
  cfg.levels = 10;
  cfg.coupling_prob = 0.5;
  cfg.coupling_cap_min = 2 * FF;
  cfg.coupling_cap_max = 9 * FF;
  cfg.input_spread = 1500 * PS;
  cfg.dff_fraction = 0.3;
  cfg.seed = gates;
  return cfg;
}

/// D6: register pipeline with heavily coupled capture nets.
inline gen::PipelineConfig pipeline_config(std::size_t paths) {
  gen::PipelineConfig cfg;
  cfg.paths = paths;
  cfg.coupling_cap = 28 * FF;
  cfg.seed = paths;
  return cfg;
}

/// One analysis run record in the --stats-json schema (session::write_stats_json)
/// for a suite case — the bench harness emits this when NW_STATS_JSON is
/// set, so a benchmark run leaves the same machine-readable artifact as
/// a CLI run and lands in the same trajectory comparisons. The extra
/// "bench" section carries git SHA, timestamp, build type, and peak RSS.
/// `design` selects the suite case: "bus64" (D1) or "logic10k" (D5, the
/// deep-propagation case the kernel-phase timings are tracked on).
inline void write_run_record(const std::string& path, const lib::Library& library,
                             const std::string& design = "bus64") {
  const gen::Generated g = design == "logic10k"
                               ? gen::make_rand_logic(library, logic_config(10000))
                               : gen::make_bus(library, bus_config(64));
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.mode = noise::AnalysisMode::kNoiseWindows;
  o.clock_period = g.sta_options.clock_period;
  const noise::Result r = noise::analyze(g.design, g.para, timing, o);

  // Time the derived-artifact renderers too (rendered to discarded streams):
  // explain of the worst violation's net and the HTML dashboard. Appended to
  // the snapshot copy as wall-time gauges so bench_history.py can track them
  // once a baseline containing them is written.
  const NetId explain_net =
      r.violations.empty() ? NetId{0} : r.violations.front().net;
  double explain_s = 0.0;
  {
    const obs::Span span("explain", obs::SpanKind::kPhase, &explain_s);
    (void)noise::explain_string(g.design, o, r, explain_net);
  }
  double html_s = 0.0;
  {
    const obs::Span span("html-report", obs::SpanKind::kPhase, &html_s);
    std::ostringstream discard;
    noise::write_html_report(discard, g.design, o, r);
  }
  obs::MetricsSnapshot snapshot = r.metrics;
  snapshot.samples.push_back(obs::wall_ms_sample(
      "explain_ms", "explain_string render wall time", explain_s * 1e3));
  snapshot.samples.push_back(obs::wall_ms_sample(
      "html_report_ms", "write_html_report render wall time", html_s * 1e3));
  // Per-kernel phase timings, in the same ms unit the render gauges use, so
  // bench_history.py tracks each analysis stage (estimate / propagate /
  // endpoint check) independently instead of only the total.
  snapshot.samples.push_back(obs::wall_ms_sample(
      "estimate_ms", "injected-glitch estimation wall time",
      r.telemetry.estimate_seconds * 1e3));
  snapshot.samples.push_back(obs::wall_ms_sample(
      "propagate_ms", "combination + gate propagation wall time",
      r.telemetry.propagate_seconds * 1e3));
  snapshot.samples.push_back(obs::wall_ms_sample(
      "check_ms", "endpoint-check wall time", r.telemetry.endpoints_seconds * 1e3));

  std::ofstream f(path);
  session::Json extra = session::Json::object();
  extra.set("bench", session::bench_record_json());
  extra.set("executor", session::executor_json(r));
  // Label the record with the suite-case name ("bus64"/"logic10k"), not the
  // generator's netlist name ("rand10000") — bench_history.py qualifies
  // baseline metric keys by this design string.
  obs::RunMeta meta = r.run_meta;
  meta.design = design;
  session::write_stats_json(f, meta, snapshot, std::move(extra));
}

/// The full D1..D6 suite. The library must outlive the returned cases.
inline std::vector<Case> make_suite(const lib::Library& library) {
  std::vector<Case> cases;
  cases.push_back({"D1-bus64", gen::make_bus(library, bus_config(64))});
  cases.push_back({"D2-bus256", gen::make_bus(library, bus_config(256))});
  cases.push_back({"D3-bus1024", gen::make_bus(library, bus_config(1024))});
  cases.push_back({"D4-logic1k", gen::make_rand_logic(library, logic_config(1000))});
  cases.push_back({"D5-logic10k", gen::make_rand_logic(library, logic_config(10000))});
  cases.push_back({"D6-pipe256", gen::make_pipeline(library, pipeline_config(256))});
  return cases;
}

}  // namespace nw::bench
