// Shared pieces of the pipeline benchmark: command-line options, the
// result record printed as the last stdout line, sample statistics, and
// the benchmark's own span recorder.
//
// Spans are recorded only here, around calls into the analyzer's public
// functions; nothing inside src/ is instrumented. A span records its name,
// start, end, parent span and the id of the pass or request it belongs to.
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// An untraced run sets up at least kSetups times and for at least
/// kSetupSeconds in total; setup_s is the median. (Small set-ups repeat
/// more often, which steadies their median.)
inline constexpr int kSetups = 5;
inline constexpr double kSetupSeconds = 2.0;

/// Whether another set-up round is due, given the times taken so far.
[[nodiscard]] inline bool more_setups(bool trace, const std::vector<double>& taken) {
  if (taken.empty()) return true;
  if (trace) return false;
  double total = 0.0;
  for (const double t : taken) total += t;
  return taken.size() < static_cast<std::size_t>(kSetups) || total < kSetupSeconds;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";     ///< working directory for generated inputs
  std::string spans_path;         ///< traced run: where the spans are written
  bool tiny = false;              ///< self-test sizes
  bool corrupt = false;           ///< self-test: damage one output on purpose
};

/// What a workload hands back to main: the output-check verdict, the
/// operation counts, the metrics of this run kind (units come from the
/// catalogue in workloads.hpp), and human-readable lines printed before the
/// record.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  /// Count one checked operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back("CHECK FAILED: " + what);
    }
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

// ---- sample statistics -----------------------------------------------------

[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The tail percentile a sample supports: p90 when at least ten samples lie
/// beyond it (n >= 100), otherwise the highest whole percentile that still
/// leaves ten samples beyond it; the median when n <= 10.
[[nodiscard]] inline int tail_percentile(std::size_t n) {
  if (n <= 10) return 50;
  const int p = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
  return std::clamp(p, 50, 90);
}

[[nodiscard]] inline double tail(const std::vector<double>& v) {
  return quantile(v, tail_percentile(v.size()) / 100.0);
}

/// Samples collected under names; each reads back as its median.
struct Series {
  std::map<std::string, std::vector<double>> values;
  void add(const std::string& name, double v) { values[name].push_back(v); }
  [[nodiscard]] double median_of(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : median(it->second);
  }
};

/// Least-squares slope of log(y) against log(x).
[[nodiscard]] inline double loglog_slope(const std::vector<double>& x,
                                         const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(std::max(y[i], 1e-12));
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double den = static_cast<double>(n) * sxx - sx * sx;
  return den == 0.0 ? 0.0 : (static_cast<double>(n) * sxy - sx * sy) / den;
}

/// Process high-water resident set size [MB].
[[nodiscard]] double peak_rss_mb();

// ---- span recorder ---------------------------------------------------------

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< since the recorder's origin
  double end_s = 0.0;
  int parent = -1;       ///< index into the recorder, -1 = root
  std::uint64_t group = 0;  ///< pass or request id
};

class SpanRecorder {
 public:
  /// Recording is off until enable(); a disabled recorder costs one branch
  /// per scope.
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return on_; }

  [[nodiscard]] int open(const std::string& name, std::uint64_t group);
  void close(int index);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Self time of every span: its duration minus the part its direct
  /// children cover (children of one span never overlap: each thread
  /// records its own nested stack).
  [[nodiscard]] static std::vector<double> self_times(const std::vector<SpanRecord>& spans);

  /// Write one JSON object per span.
  void write(const std::string& path) const;

 private:
  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span over one call into a layer. `group` 0 inherits the parent's.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, std::uint64_t group = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int index_ = -1;
};

}  // namespace perfbench
