// Pipeline benchmark executable.
//
//   perfbench --workload <signoff-logic|accuracy-bus|eco-serve> --seed <n>
//             --seconds <s> --trace <0|1> [--work <dir>] [--spans <file>]
//             [--tiny] [--corrupt]
//
// Prints human-readable notes, then as its last stdout line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics for --trace 0, the per-layer metrics for --trace 1. Exit code 0
// when the run completed (whatever the output-check verdict), 1 on a
// usage or setup error.
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/memtrack.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},       {"op_ms_p50", "ms"}, {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"}, {"ok_frac", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // Each workload's own headline figures, from the untraced half.
      {"signoff_s", "s"},
      {"eco_ms_p50", "ms"},
      {"eco_ms_p90", "ms"},
      {"read_ms_p50", "ms"},
      {"read_ms_p90", "ms"},
      {"eco_per_s", "1/s"},
      {"failed_frac", "ratio"},
      // Ingest.
      {"library.read_ms", "ms"},
      {"netlist.read_ms", "ms"},
      {"parasitics.read_ms", "ms"},
      {"netlist.bytes", "B"},
      {"parasitics.bytes", "B"},
      {"netlist.scaling_exp", "ratio"},
      {"parasitics.scaling_exp", "ratio"},
      // STA.
      {"sta.run_ms", "ms"},
      {"sta.passes", "count"},
      {"sta.bytes", "B"},
      {"sta.scaling_exp", "ratio"},
      // Noise analysis.
      {"noise.analyze_ms", "ms"},
      {"noise.context_ms", "ms"},
      {"noise.estimate_ms", "ms"},
      {"noise.propagate_ms", "ms"},
      {"noise.check_ms", "ms"},
      {"noise.unattributed_ms", "ms"},
      {"noise.victims_estimated", "count"},
      {"noise.aggressor_pairs", "count"},
      {"noise.violations", "count"},
      {"noise.result_bytes", "B"},
      {"noise.scaling_exp", "ratio"},
      {"executor.idle_frac", "ratio"},
      {"executor.estimate_imbalance", "ratio"},
      // Reports.
      {"report.text_ms", "ms"},
      {"report.html_ms", "ms"},
      {"report.explain_ms", "ms"},
      // Session (in-process replay of the ECO script).
      {"session.edit_ms", "ms"},
      {"session.requery_ms", "ms"},
      {"session.sta_ms", "ms"},
      {"session.analyze_ms", "ms"},
      {"session.reuse_frac", "ratio"},
      {"session.cache_hit_frac", "ratio"},
      {"session.full_analyses", "count"},
      // Transport.
      {"net.rtt_overhead_ms", "ms"},
      {"net.shed", "count"},
      {"net.queue_rejected", "count"},
      // Self-time decomposition of the median traced signoff pass.
      {"trace.pass_ms", "ms"},
      {"self.library_ms", "ms"},
      {"self.netlist_ms", "ms"},
      {"self.parasitics_ms", "ms"},
      {"self.sta_ms", "ms"},
      {"self.noise_ms", "ms"},
      {"self.report_ms", "ms"},
      {"self.unattributed_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why + "\nusage: perfbench --workload <signoff-logic|accuracy-bus|eco-serve> --seed <n> "
            "--seconds <s> --trace <0|1> [--work <dir>] [--spans <file>] [--tiny] [--corrupt]");
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--work") {
      a.work_dir = value();
    } else if (k == "--spans") {
      a.spans_path = value();
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--corrupt") {
      a.corrupt = true;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Shortest round-trip rendering of a double (every digit as measured).
std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    // End-to-end figures are measured with the program's own memory
    // accounting off (its tracer, profiler and sampler are off by default).
    nw::obs::MemTracker::set_enabled(false);

    Outcome out;
    if (args.workload == "signoff-logic") {
      out = run_signoff(args, /*bus=*/false);
    } else if (args.workload == "accuracy-bus") {
      out = run_signoff(args, /*bus=*/true);
    } else if (args.workload == "eco-serve") {
      out = run_eco_serve(args);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }

    const double failed_frac =
        out.attempted == 0 ? 1.0
                           : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    if (args.trace) {
      out.set("failed_frac", failed_frac);
    } else {
      out.set("peak_rss_mb", peak_rss_mb());
      out.set("ok_frac", 1.0 - failed_frac);
    }

    for (const std::string& note : out.notes) std::cout << "# " << note << "\n";
    const auto& specs = args.trace ? per_layer_metrics() : end_to_end_metrics();
    std::string metrics;
    for (const MetricSpec& spec : specs) {
      const auto it = out.metrics.find(spec.name);
      const double value = it == out.metrics.end() ? 0.0 : it->second;
      std::cout << "# " << spec.name << " = " << number(value) << " " << spec.unit << "\n";
      if (!metrics.empty()) metrics += ",";
      metrics += "\"" + std::string(spec.name) + "\":{\"value\":" + number(value) +
                 ",\"unit\":\"" + spec.unit + "\"}";
    }
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::cout << "# workload " << args.workload << " seed " << args.seed << ": output checks "
              << (correct ? "PASSED" : "FAILED") << " (" << out.failed << " of " << out.attempted
              << " operations failed)\n";
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
              << ",\"metrics\":{" << metrics << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
