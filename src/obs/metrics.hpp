// Metrics registry: named counters, gauges, and fixed-bucket histograms.
// Snapshots are exported as JSON by session/stats_json.hpp (the CLI's
// --stats-json artifact).
//
// The analyzer owns one Registry per run, updates it from the serial fold
// sections of each pipeline stage (so deterministic metrics are
// bit-identical across thread counts — the same guarantee the Result
// carries), and snapshots it into the Result. Wall-time metrics are the
// only nondeterministic ones; they are registered with
// `deterministic = false` and land in a separate "timing" section of the
// JSON, so consumers (CI, the bench trajectory) can diff the rest exactly.
//
// Thread-safety: every metric type is safe for concurrent updates (atomic
// counters/buckets); registration and snapshotting take the registry lock.
// Determinism of a metric is a property of *where* it is updated from —
// serial code in index order — not of the type.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nw::obs {

/// Version of the --stats-json layout. The layout and its history are
/// documented with the writer, session/stats_json.hpp.
inline constexpr int kStatsSchemaVersion = 6;

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (phase wall times, resolved thread count).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Value-type histogram contents (also the snapshot representation).
/// `bounds` are ascending inclusive upper bounds; an implicit overflow
/// bucket makes counts.size() == bounds.size() + 1. `min`/`max` are the
/// exact extremes of every observed value (0 while count == 0).
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Quantile estimate from bucketed data: linear interpolation inside the
/// bucket holding the q-th observation, with the first bucket's lower edge
/// and the overflow bucket's upper edge pinned to the exact min/max. The
/// result is clamped to [min, max]; an empty histogram yields 0. `q` is
/// clamped to [0, 1].
[[nodiscard]] double histogram_quantile(const HistogramData& h, double q) noexcept;

/// Fixed-bucket histogram. observe() is wait-free per bucket; min/max use
/// a short CAS loop (contended only while the running extreme moves).
class Histogram {
 public:
  /// `bounds` must be strictly ascending (checked).
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;
  [[nodiscard]] HistogramData data() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  ///< valid only while count_ > 0
  std::atomic<double> max_{0.0};
};

/// One exported metric value (plain data; what Registry::snapshot yields).
struct MetricSample {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  std::string name;
  std::string help;
  std::string unit;  ///< "", "s", "V", ...
  Kind kind = Kind::kCounter;
  bool deterministic = true;  ///< false = wall-time / scheduling dependent
  bool resource = false;      ///< memory/RSS accounting ("resources" section)

  std::uint64_t count = 0;  ///< counter value
  double value = 0.0;       ///< gauge value
  HistogramData hist;       ///< histogram contents
};

/// A run's exported metrics, in registration order.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// nullptr when absent.
  [[nodiscard]] const MetricSample* find(std::string_view name) const noexcept;
};

/// A nondeterministic gauge sample in milliseconds ("timing" section), for
/// wall times measured outside a registry — e.g. a span's duration sink —
/// and appended to a snapshot copy before export.
[[nodiscard]] MetricSample wall_ms_sample(std::string name, std::string help,
                                          double ms);

/// Names metrics and hands out stable references. References stay valid
/// for the registry's lifetime. Re-registering a name returns the existing
/// metric (kind mismatch throws).
class Registry {
 public:
  Registry();
  ~Registry();  // out of line: Entry is incomplete here
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, std::string_view help,
                   bool deterministic = true, bool resource = false);
  Gauge& gauge(std::string_view name, std::string_view help, std::string_view unit = "",
               bool deterministic = true, bool resource = false);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds, std::string_view unit = "",
                       bool deterministic = true, bool resource = false);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Entry;
  Entry& find_or_create(std::string_view name, std::string_view help,
                        std::string_view unit, MetricSample::Kind kind,
                        bool deterministic, bool resource, std::vector<double> bounds);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Identity of one run, embedded in the stats JSON so trajectories can be
/// compared across PRs and machines.
struct RunMeta {
  std::string design;          ///< design name
  std::string mode;            ///< analysis mode string
  std::string model;           ///< glitch model string
  std::string options_digest;  ///< stable hash of every analysis option
  std::string build;           ///< git describe (or "unknown")
  int threads = 1;             ///< resolved executor parallelism
  int iterations = 1;          ///< analysis passes run
};

/// The compile-time build id (git describe at configure time).
[[nodiscard]] const char* build_version() noexcept;

/// The full configure-time git commit SHA ("unknown" outside a checkout).
[[nodiscard]] const char* git_sha() noexcept;

/// "Release" or "Debug" (from NDEBUG), for client feature reports and the
/// bench run records — a Debug number must never land in a perf baseline.
[[nodiscard]] const char* build_type() noexcept;

}  // namespace nw::obs
