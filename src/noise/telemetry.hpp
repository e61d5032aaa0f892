// Per-run analysis telemetry: phase wall times and work counters.
//
// Since the observability subsystem landed, Telemetry is a *typed view*
// over the run's metrics (obs/metrics.hpp): the analyzer fills one
// obs::Registry per run, snapshots it into Result::metrics, and derives
// this struct from the snapshot via telemetry_from_metrics() — so the
// --stats table, the --stats-json export, and programmatic consumers all
// read the same numbers. Wall times are the only nondeterministic part of
// a Result — everything else is bit-identical across thread counts.
#pragma once

#include <cstddef>
#include <iosfwd>

#include "obs/metrics.hpp"

namespace nw::noise {

struct Telemetry {
  int threads = 1;      ///< resolved executor parallelism
  int iterations = 1;   ///< analysis passes (1 + refinement reruns)

  // Phase wall times, summed over refinement passes [s].
  double context_seconds = 0.0;    ///< AnalysisContext build (once per run)
  double estimate_seconds = 0.0;   ///< per-victim injected-glitch estimation
  double propagate_seconds = 0.0;  ///< combination + levelized gate propagation
  double endpoints_seconds = 0.0;  ///< endpoint checks + noisy-net scan
  double total_seconds = 0.0;      ///< whole analyze() call

  // Work counters (deterministic).
  std::size_t victims_estimated = 0;   ///< nets whose glitches were computed
  std::size_t victims_reused = 0;      ///< incremental: estimates carried over
  std::size_t aggressor_pairs = 0;     ///< victim/aggressor pairs evaluated
  std::size_t pairs_filtered_cap = 0;  ///< pairs dropped below kMinCouplingCap
  std::size_t levels = 0;              ///< propagation levels (parallel width)
  std::size_t endpoints = 0;           ///< endpoints checked per pass
};

// Canonical metric names the analyzer registers (shared by the typed view,
// tests, and tools/validate_obs.py). Counters accumulate over refinement
// passes; gauges hold last-pass values; kMetric*Seconds live in the
// nondeterministic "timing" section of the JSON export.
inline constexpr const char* kMetricVictimsEstimated = "victims_estimated";
inline constexpr const char* kMetricVictimsReused = "victims_reused";
inline constexpr const char* kMetricAggressorPairs = "aggressor_pairs";
inline constexpr const char* kMetricPairsFilteredCap = "pairs_filtered_cap";
inline constexpr const char* kMetricExecutorTasks = "executor_tasks";
inline constexpr const char* kMetricLevels = "propagation_levels";
inline constexpr const char* kMetricEndpoints = "endpoints_checked";
inline constexpr const char* kMetricViolations = "violations";
inline constexpr const char* kMetricNoisyNets = "noisy_nets";
inline constexpr const char* kMetricAggressorsConsidered = "aggressors_considered";
inline constexpr const char* kMetricAggressorsFilteredTemporal =
    "aggressors_filtered_temporal";
inline constexpr const char* kMetricGlitchPeak = "glitch_peak_v";
inline constexpr const char* kMetricAggressorsPerVictim = "aggressors_per_victim";
inline constexpr const char* kMetricLevelWidth = "level_width";
inline constexpr const char* kMetricContextSeconds = "phase_context_seconds";
inline constexpr const char* kMetricEstimateSeconds = "phase_estimate_seconds";
inline constexpr const char* kMetricPropagateSeconds = "phase_propagate_seconds";
inline constexpr const char* kMetricEndpointsSeconds = "phase_endpoints_seconds";
inline constexpr const char* kMetricTotalSeconds = "total_seconds";
// Resource gauges (the "resources" section of the JSON export): sampled,
// machine-dependent, never deterministic.
inline constexpr const char* kMetricRssBytes = "rss_bytes";
inline constexpr const char* kMetricPeakRssBytes = "peak_rss_bytes";
inline constexpr const char* kMetricResultBytes = "result_bytes";

/// Derive the typed view from a run's exported metrics. Names missing from
/// the snapshot read as zero; threads/iterations come from the meta.
[[nodiscard]] Telemetry telemetry_from_metrics(const obs::RunMeta& meta,
                                               const obs::MetricsSnapshot& snap);

/// Human-readable phase/counter table — the single rendering used by the
/// CLI's --stats section and write_report's telemetry footer.
void write_stats(std::ostream& os, const Telemetry& t);

}  // namespace nw::noise
