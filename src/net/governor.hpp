// Admission control + load shedding for the daemon's analysis work.
//
// Analyses are the expensive requests (everything else is a map lookup or
// a metrics snapshot), so the governor meters exactly those: a fixed pool
// of analysis slots, a short bounded wait behind them, and structured
// shedding past that. The retry-after hint scales with the observed
// analysis latency (EWMA) times the queue position the request would have
// had — an honest estimate, not a constant.
//
// slots == 0 is maintenance mode: every analysis-triggering request sheds
// immediately (used by tests to exercise the overload path
// deterministically, and operationally to park a daemon while keeping
// cached queries alive).
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "session/protocol.hpp"

namespace nw::net {

class LoadGovernor final : public session::AnalysisGate {
 public:
  struct Config {
    int slots = 2;         ///< concurrent analyses admitted (0 = shed all)
    int max_waiters = 8;   ///< admissions allowed to queue behind full slots
  };
  /// Latency prior of the EWMA until real samples arrive [ms].
  static constexpr double kSeedEwmaMs = 50.0;

  /// Registers its counters/gauges into `reg` (the daemon's registry).
  LoadGovernor(Config config, obs::Registry& reg);

  /// Blocks while all slots are busy and the wait queue is short; sheds
  /// with a retry-after hint otherwise. Thread-safe.
  [[nodiscard]] Ticket admit(const std::string& cmd) override;

  /// Return an admitted slot; `analyze_ms` updates the latency EWMA that
  /// prices future retry-after hints.
  void release(double analyze_ms) override;

  [[nodiscard]] double ewma_ms() const;

  /// Live occupancy, for the telemetry sampler (thread-safe reads).
  [[nodiscard]] int inflight() const;
  [[nodiscard]] int waiting() const;

  /// Also feed each released analysis latency into a rotating window (the
  /// daemon's, so the timeseries can report p50/p95 over the last few
  /// seconds instead of since-start). nullptr disables. Not owned; install
  /// before serving starts and keep alive while the governor runs.
  void set_latency_window(obs::RotatingQuantile* window) noexcept;

  // Metric names (in the daemon registry; surfaced by the "daemon"
  // stats-JSON section and tools/validate_obs.py).
  static constexpr const char* kMetricAdmitted = "daemon_analyses_admitted";
  static constexpr const char* kMetricShed = "daemon_requests_shed";
  static constexpr const char* kMetricInflight = "daemon_analyses_inflight";
  static constexpr const char* kMetricWaiting = "daemon_admissions_waiting";
  static constexpr const char* kMetricAnalyzeMs = "daemon_analyze_ms";

 private:
  Config cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
  int waiting_ = 0;
  double ewma_ms_;
  obs::RotatingQuantile* latency_window_ = nullptr;

  obs::Counter& admitted_;
  obs::Counter& shed_;
  obs::Gauge& inflight_g_;
  obs::Gauge& waiting_g_;
  obs::Histogram& analyze_ms_;
};

}  // namespace nw::net
