// Live telemetry: a bounded ring of periodic metric samples, a rotating
// windowed quantile estimator, and the sampler thread that feeds them.
//
// The stats-JSON artifact (metrics.hpp) is a post-mortem: one snapshot at
// exit. The daemon needs the *trajectory* — queue depth, active analyses,
// shed counts, RSS — while it is serving, with bounded memory and without
// perturbing the analysis it observes. TimeSeriesRing keeps the last
// `capacity` samples of a fixed series list; Sampler is a ticker thread
// (the same shape as the profiler's, obs/profile.hpp) that calls a
// read-only sample function at a fixed interval and records the result.
//
// Determinism: sampling only ever *reads* gauges, counters, and /proc —
// it never touches analysis state. Analysis results are byte-identical
// with the sampler on or off at any interval (property-tested in
// tests/test_timeseries.cpp), the same invariant the profiler keeps.
//
// RotatingQuantile answers "p95 analyze latency over the last ~N seconds"
// (as opposed to since-process-start, which a plain Histogram gives): W
// fixed-bucket sub-windows, observe() lands in the current one, rotate()
// (called from the sampler tick) advances to and clears the oldest, and
// quantile() merges all live sub-windows through histogram_quantile.
//
// Thread-safety: every class here takes a short internal mutex; holders
// never block on I/O or on each other ("lock-light", not lock-free — the
// sample rate is a few Hz, contention is negligible).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace nw::obs {

/// One periodic sample: milliseconds since the ring's epoch (sampler
/// start) plus one value per series, in series order.
struct TimeSample {
  double t_ms = 0.0;
  std::vector<double> v;
};

/// A copy of the ring for export (the stats JSON "timeseries" section is
/// session::timeseries_json). `total` counts every sample ever
/// recorded (so consumers can detect wraparound: total > samples.size()).
struct TimeSeriesSnapshot {
  int interval_ms = 0;
  std::size_t capacity = 0;
  std::uint64_t total = 0;
  std::vector<std::string> series;
  std::vector<TimeSample> samples;  ///< oldest first, t_ms nondecreasing

  [[nodiscard]] bool empty() const noexcept { return samples.empty(); }
};

/// Fixed-capacity ring of TimeSamples over a fixed series list. One
/// writer (the sampler), any number of snapshot readers.
class TimeSeriesRing {
 public:
  /// `capacity` is clamped to at least 1.
  TimeSeriesRing(std::vector<std::string> series, std::size_t capacity);

  /// Append one sample; overwrites the oldest once full. `values` is
  /// padded / truncated to the series arity.
  void record(double t_ms, std::vector<double> values);

  /// Last `last_n` samples, oldest first (0 = everything retained).
  [[nodiscard]] TimeSeriesSnapshot snapshot(std::size_t last_n = 0) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::vector<std::string>& series() const noexcept {
    return series_;
  }

  /// Recorded into snapshots for consumers; set by the sampler.
  void set_interval_ms(int interval_ms);

 private:
  std::vector<std::string> series_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  int interval_ms_ = 0;
  std::vector<TimeSample> ring_;  ///< slot = total_ % capacity_
  std::uint64_t total_ = 0;
};

/// Windowed quantile estimator: W sub-windows of fixed-bucket counts.
/// observe() is concurrent-safe; rotate() advances the window (typically
/// once per sampler tick, so the horizon is windows x interval).
class RotatingQuantile {
 public:
  /// `bounds` as for Histogram (strictly ascending upper bounds);
  /// `windows` clamped to at least 1.
  RotatingQuantile(std::vector<double> bounds, std::size_t windows);

  void observe(double v);
  void rotate();

  /// Quantile over all live sub-windows (0 when empty). Interpolated via
  /// histogram_quantile; min/max are tracked per sub-window horizon.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::size_t windows() const noexcept { return wins_.size(); }

 private:
  struct Window {
    std::vector<std::uint64_t> counts;  // bounds.size() + 1
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  [[nodiscard]] HistogramData merged_locked() const;

  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<Window> wins_;
  std::size_t cur_ = 0;
};

/// Ticker thread recording into a TimeSeriesRing at a fixed interval.
/// start()/stop() are idempotent; stop() joins. The sample function runs
/// on the sampler thread and must only read shared state.
class Sampler {
 public:
  using SampleFn = std::function<std::vector<double>()>;

  /// `interval_ms` clamped to [1, 60000]. Does not start.
  Sampler(TimeSeriesRing& ring, SampleFn fn, int interval_ms);
  ~Sampler();  ///< stops and joins if still running

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Records one sample immediately (t=0), then one per interval.
  void start();
  void stop();
  [[nodiscard]] bool running() const;
  [[nodiscard]] int interval_ms() const noexcept { return interval_ms_; }

 private:
  void loop();

  TimeSeriesRing& ring_;
  SampleFn fn_;
  int interval_ms_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace nw::obs
