// signoff-logic and accuracy-bus: batch signoff passes over seeded inputs.
//
// Setup generates the seeded design and writes it as .nlib/.nv/.nwspef.
// One pass is read_library -> read_netlist -> read_spef -> sta::run ->
// noise::analyze -> write_report, reading only those files. Outside the
// timed passes the run analyzes the generated design in memory (no file
// round trip) under all three filtering modes, re-analyzes the first
// pass's inputs with one thread, and checks every pass against those
// references.
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "figures.hpp"
#include "inputs.hpp"
#include "library/liberty_io.hpp"
#include "netlist/verilog.hpp"
#include "noise/report_writer.hpp"
#include "parasitics/spef.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace nw;

/// Everything one pass produced. Owned here so that freeing it happens
/// after the pass's clock stops.
struct PassState {
  std::unique_ptr<lib::Library> library;
  std::optional<net::Design> design;
  std::optional<para::Parasitics> para;
  sta::Result timing;
  noise::Result result;
  std::string report;
  double seconds = 0.0;
};

PassState run_pass(const Inputs& in, const noise::Options& opt, SpanRecorder& rec,
                   std::uint64_t id) {
  PassState s;
  const auto t0 = Clock::now();
  {
    const Scope pass(rec, "pass", id);
    {
      const Scope span(rec, "library.read");
      std::ifstream f = open_input(in.lib_path);
      s.library = std::make_unique<lib::Library>(lib::read_library(f));
    }
    {
      const Scope span(rec, "netlist.read");
      std::ifstream f = open_input(in.netlist_path);
      s.design.emplace(net::read_netlist(f, *s.library));
    }
    {
      const Scope span(rec, "parasitics.read");
      std::ifstream f = open_input(in.spef_path);
      s.para.emplace(para::read_spef(f, *s.design));
    }
    {
      const Scope span(rec, "sta.run");
      s.timing = sta::run(*s.design, *s.para, in.sta);
    }
    {
      const Scope span(rec, "noise.analyze");
      s.result = noise::analyze(*s.design, *s.para, s.timing, opt);
    }
    {
      const Scope span(rec, "report.text");
      std::ostringstream os;
      noise::write_report(os, *s.design, opt, s.result);
      s.report = std::move(os).str();
    }
  }
  s.seconds = seconds_since(t0);
  return s;
}

std::string report_of(const net::Design& d, const noise::Options& opt, const noise::Result& r) {
  std::ostringstream os;
  noise::write_report(os, d, opt, r);
  return std::move(os).str();
}

/// FNV-1a over every deterministic field of a Result: per-net noise and
/// windows, violations, endpoint slacks and the work counters.
std::uint64_t digest(const noise::Result& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  const auto num = [&](double v) { mix(&v, sizeof v); };
  const auto count = [&](std::size_t v) { mix(&v, sizeof v); };
  for (const noise::NetNoise& n : r.nets) {
    num(n.injected_peak);
    num(n.propagated_peak);
    num(n.total_peak);
    num(n.width);
    count(n.aggressor_count);
    for (const Interval& iv : n.window.intervals()) {
      num(iv.lo);
      num(iv.hi);
    }
  }
  for (const noise::Violation& v : r.violations) {
    count(v.endpoint.index());
    count(v.net.index());
    num(v.peak);
    num(v.width);
    num(v.threshold);
  }
  for (const double s : r.endpoint_slacks) num(s);
  count(r.endpoints_checked);
  count(r.noisy_nets);
  count(r.aggressors_considered);
  count(r.telemetry.victims_estimated);
  count(r.telemetry.aggressor_pairs);
  return h;
}

constexpr const char* kLayerSpans[] = {"library.read", "netlist.read", "parasitics.read",
                                       "sta.run",      "noise.analyze", "report.text"};

/// Per-layer wall time of each traced pass (by span name), in ms.
std::map<std::uint64_t, std::map<std::string, double>> layer_ms_by_pass(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::map<std::string, double>> out;
  for (const SpanRecord& s : spans) out[s.group][s.name] += (s.end_s - s.start_s) * 1e3;
  return out;
}

/// One rung of the scaling ladder: nets and per-layer medians [ms].
struct Rung {
  double nets = 0.0;
  std::map<std::string, double> ms;
};

Rung ladder_rung(bool bus, std::size_t size, const Args& args, const noise::Options& opt,
                 int reps) {
  const Generated gen = generate(bus, size, args.seed);
  const Inputs in = write_inputs(gen, args.work_dir, "ladder" + std::to_string(size));
  Rung rung;
  rung.nets = static_cast<double>(gen.g->design.net_count());
  SpanRecorder rec;
  rec.enable(true);
  for (int i = 0; i < reps; ++i) (void)run_pass(in, opt, rec, static_cast<std::uint64_t>(i + 1));
  std::map<std::string, std::vector<double>> per_layer;
  for (const auto& [group, layers] : layer_ms_by_pass(rec.spans())) {
    for (const auto& [name, ms] : layers) per_layer[name].push_back(ms);
  }
  for (const auto& [name, v] : per_layer) rung.ms[name] = median(v);
  return rung;
}

}  // namespace

Outcome run_signoff(const Args& args, bool bus) {
  Outcome out;
  const std::size_t size = bus ? (args.tiny ? 32 : 1024) : (args.tiny ? 2000 : 100000);
  noise::Options opt;
  opt.mode = noise::AnalysisMode::kNoiseWindows;
  opt.model = bus ? noise::GlitchModel::kReducedMna : noise::GlitchModel::kTwoPi;
  opt.threads = 2;

  // ---- setup: generate and write the inputs (several times; median) ------
  std::vector<double> setup_s;
  Generated gen;
  Inputs in;
  while (more_setups(args.trace, setup_s)) {
    gen = Generated{};  // free the previous copy before timing the next
    const auto t0 = Clock::now();
    gen = generate(bus, size, args.seed);
    in = write_inputs(gen, args.work_dir, "design");
    setup_s.push_back(seconds_since(t0));
  }
  opt.clock_period = in.sta.clock_period;
  const net::Design& gdesign = gen.g->design;
  const para::Parasitics& gpara = gen.g->para;

  // ---- references, outside the timed passes ------------------------------
  const sta::Result gtiming = sta::run(gdesign, gpara, in.sta);
  const noise::Result reference = noise::analyze(gdesign, gpara, gtiming, opt);
  const std::string reference_report = report_of(gdesign, opt, reference);
  const auto violations_under = [&](noise::AnalysisMode mode) {
    noise::Options o = opt;
    o.mode = mode;
    return noise::analyze(gdesign, gpara, gtiming, o).violations.size();
  };
  const std::size_t nw_v = reference.violations.size();
  const std::size_t sw_v = violations_under(noise::AnalysisMode::kSwitchingWindows);
  const std::size_t nf_v = violations_under(noise::AnalysisMode::kNoFiltering);
  out.check(nw_v <= sw_v && sw_v <= nf_v,
            "violation ordering noise-windows " + std::to_string(nw_v) +
                " <= switching-windows " + std::to_string(sw_v) + " <= no-filtering " +
                std::to_string(nf_v));
  gen = Generated{};

  // ---- timed passes ------------------------------------------------------
  // Untraced: the whole budget. Traced: an untraced half, then a traced
  // half (their difference is the tracing overhead).
  SpanRecorder rec;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::string first_report;
  Series series;
  PassState last;
  std::uint64_t pass_id = 0;
  for (const bool traced : args.trace ? std::vector<bool>{false, true} : std::vector<bool>{false}) {
    rec.enable(traced);
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    const int min_passes = args.trace ? 2 : 3;
    const auto t0 = Clock::now();
    for (int n = 0; n < min_passes || seconds_since(t0) < budget; ++n) {
      ++pass_id;
      bool ok = true;
      std::string why;
      try {
        PassState s = run_pass(in, opt, rec, pass_id);
        (traced ? traced_s : untraced_s).push_back(s.seconds);
        if (args.corrupt && pass_id == 2 && !s.report.empty()) s.report[s.report.size() / 2] ^= 1;
        if (first_report.empty()) {
          first_report = s.report;
          out.check(s.report == reference_report,
                    "report from files equals the in-memory analysis");
        }
        ok = s.report == first_report;
        why = "pass report equals the first pass's";
        const noise::Telemetry& t = s.result.telemetry;
        if (traced) {
          series.add("noise.context_ms", t.context_seconds * 1e3);
          series.add("noise.estimate_ms", t.estimate_seconds * 1e3);
          series.add("noise.propagate_ms", t.propagate_seconds * 1e3);
          series.add("noise.check_ms", t.endpoints_seconds * 1e3);
          series.add("noise.phases_ms", (t.context_seconds + t.estimate_seconds +
                                         t.propagate_seconds + t.endpoints_seconds) * 1e3);
          series.add("executor.idle_frac", idle_frac(s.result.executor));
          series.add("executor.estimate_imbalance", estimate_imbalance(s.result.executor));
        }
        last = std::move(s);
      } catch (const std::exception& e) {
        ok = false;
        why = std::string("pass threw: ") + e.what();
      }
      out.check(ok, why);
    }
  }

  // Same inputs, one thread: the result must be bit-identical. (It is
  // compared on one pass's own inputs because the file round trip may
  // reorder parasitics, which can move last bits of a sum.)
  if (last.design) {
    noise::Options serial = opt;
    serial.threads = 1;
    out.check(digest(noise::analyze(*last.design, *last.para, last.timing, serial)) ==
                  digest(last.result),
              "threads=2 result equals the threads=1 result");
  }

  const std::vector<double>& passes = untraced_s;
  {
    std::ostringstream os;
    os << "untraced pass seconds:";
    for (const double p : passes) os << " " << p;
    out.notes.push_back(os.str());
  }
  out.notes.push_back("seed " + std::to_string(args.seed) + ": " + std::to_string(passes.size()) +
                      " untraced passes, violations nw/sw/nf = " + std::to_string(nw_v) + "/" +
                      std::to_string(sw_v) + "/" + std::to_string(nf_v));

  if (!args.trace) {
    out.set("setup_s", median(setup_s));
    out.set("op_ms_p50", median(passes) * 1e3);
    double pass_total_s = 0.0;
    for (const double p : passes) pass_total_s += p;
    out.set("ops_per_s", static_cast<double>(passes.size()) / pass_total_s);
    out.notes.push_back("signoff_s = " + std::to_string(median(passes)) + " s (median of " +
                        std::to_string(passes.size()) + " passes)");
    return out;
  }

  // ---- traced run: per-layer numbers ------------------------------------
  out.set("signoff_s", median(untraced_s));
  out.set("trace.overhead_frac", (median(traced_s) - median(untraced_s)) / median(untraced_s));
  const std::vector<SpanRecord> spans = rec.spans();
  const auto by_pass = layer_ms_by_pass(spans);
  for (const auto& [group, layers] : by_pass) {
    for (const auto& [name, ms] : layers) series.add(name, ms);
  }
  out.set("library.read_ms", series.median_of("library.read"));
  out.set("netlist.read_ms", series.median_of("netlist.read"));
  out.set("parasitics.read_ms", series.median_of("parasitics.read"));
  out.set("sta.run_ms", series.median_of("sta.run"));
  out.set("noise.analyze_ms", series.median_of("noise.analyze"));
  out.set("report.text_ms", series.median_of("report.text"));
  for (const char* m : {"noise.context_ms", "noise.estimate_ms", "noise.propagate_ms",
                        "noise.check_ms", "executor.idle_frac", "executor.estimate_imbalance"}) {
    out.set(m, series.median_of(m));
  }
  {
    std::vector<double> unattributed;
    const auto& analyze = series.values["noise.analyze"];
    const auto& phases = series.values["noise.phases_ms"];
    for (std::size_t i = 0; i < analyze.size() && i < phases.size(); ++i) {
      unattributed.push_back(analyze[i] - phases[i]);
    }
    out.set("noise.unattributed_ms", median(unattributed));
  }

  // Self-time decomposition of the median traced pass: the layers' self
  // times plus the pass's own (unattributed) self time add up to its wall.
  {
    const std::vector<double> self = SpanRecorder::self_times(spans);
    std::vector<std::pair<double, std::size_t>> roots;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0) roots.emplace_back(spans[i].end_s - spans[i].start_s, i);
    }
    std::sort(roots.begin(), roots.end());
    const std::size_t root = roots[(roots.size() - 1) / 2].second;
    std::map<std::string, double> layer_self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == static_cast<int>(root)) layer_self[spans[i].name] += self[i] * 1e3;
    }
    out.set("self.library_ms", layer_self["library.read"]);
    out.set("self.netlist_ms", layer_self["netlist.read"]);
    out.set("self.parasitics_ms", layer_self["parasitics.read"]);
    out.set("self.sta_ms", layer_self["sta.run"]);
    out.set("self.noise_ms", layer_self["noise.analyze"]);
    out.set("self.report_ms", layer_self["report.text"]);
    out.set("self.unattributed_ms", self[root] * 1e3);
    out.set("trace.pass_ms", roots[(roots.size() - 1) / 2].first * 1e3);
  }

  // Exact counts and layer footprints (from the last pass's state).
  out.set("noise.victims_estimated", static_cast<double>(last.result.telemetry.victims_estimated));
  out.set("noise.aggressor_pairs", static_cast<double>(last.result.telemetry.aggressor_pairs));
  out.set("noise.violations", static_cast<double>(last.result.violations.size()));
  out.set("sta.passes", static_cast<double>(last.timing.passes));
  out.set("netlist.bytes", static_cast<double>(last.design->memory_bytes()));
  out.set("parasitics.bytes", static_cast<double>(last.para->memory_bytes()));
  out.set("sta.bytes", static_cast<double>(sta::memory_bytes(last.timing)));
  out.set("noise.result_bytes", static_cast<double>(noise::memory_bytes(last.result)));

  // Renderers outside the pass: HTML dashboard and explain of the worst net.
  const RenderTimes render = time_renderers(*last.design, opt, last.result);
  out.set("report.html_ms", render.html_ms);
  out.set("report.explain_ms", render.explain_ms);

  // Scaling ladder (logic only): same seed at a tenth and three tenths of
  // the size, plus the traced passes above as the top rung.
  if (!bus) {
    last = PassState{};
    std::vector<Rung> rungs;
    rungs.push_back(ladder_rung(bus, size / 10, args, opt, 3));
    rungs.push_back(ladder_rung(bus, size * 3 / 10, args, opt, 3));
    Rung top;
    top.nets = static_cast<double>(reference.nets.size());
    for (const char* layer : kLayerSpans) top.ms[layer] = series.median_of(layer);
    rungs.push_back(top);
    const auto slope = [&rungs](const char* layer) {
      std::vector<double> x;
      std::vector<double> y;
      for (const Rung& r : rungs) {
        x.push_back(r.nets);
        y.push_back(r.ms.count(layer) != 0 ? r.ms.at(layer) : 0.0);
      }
      return loglog_slope(x, y);
    };
    out.set("netlist.scaling_exp", slope("netlist.read"));
    out.set("parasitics.scaling_exp", slope("parasitics.read"));
    out.set("sta.scaling_exp", slope("sta.run"));
    out.set("noise.scaling_exp", slope("noise.analyze"));
  }
  if (!args.spans_path.empty()) rec.write(args.spans_path);
  return out;
}

}  // namespace perfbench
