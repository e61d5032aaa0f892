// The benchmark's workloads and the catalogue of metrics they report.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Batch signoff passes over files written during setup: the seeded
/// 100k-gate logic cloud (two-pi model) or the seeded 1024-bit bus
/// (reduced-MNA model).
[[nodiscard]] Outcome run_signoff(const Args& args, bool bus);

/// Closed-loop ECO clients against an in-process daemon serving a seeded
/// 10k-gate logic cloud.
[[nodiscard]] Outcome run_eco_serve(const Args& args);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of an untraced run (BENCHMARK.json "end_to_end"), every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();

/// Metrics of a traced run (BENCHMARK.json "per_layer"), every workload; a
/// layer a workload does not exercise reads 0.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
