// R-T3: runtime scaling of the full analysis pipeline (STA + noise) per
// filtering mode versus design size (google-benchmark).
//
// Expected shape: all modes near-linear in net count for bounded aggressor
// fan-in; the noise-window mode within a small constant factor (< ~3x) of
// the unfiltered mode.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench/suite.hpp"
#include "noise/analyzer.hpp"
#include "sta/sta.hpp"

namespace {

using namespace nw;

const lib::Library& library() {
  static const lib::Library lib = lib::default_library();
  return lib;
}

void run_mode(benchmark::State& state, const gen::Generated& g,
              noise::AnalysisMode mode) {
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.mode = mode;
  o.clock_period = g.sta_options.clock_period;
  std::size_t violations = 0;
  for (auto _ : state) {
    const noise::Result r = noise::analyze(g.design, g.para, timing, o);
    violations = r.violations.size();
    benchmark::DoNotOptimize(violations);
  }
  state.counters["nets"] = static_cast<double>(g.design.net_count());
  state.counters["violations"] = static_cast<double>(violations);
}

void BM_BusNoFilter(benchmark::State& state) {
  const auto g = gen::make_bus(library(), bench::bus_config(
                                              static_cast<std::size_t>(state.range(0))));
  run_mode(state, g, noise::AnalysisMode::kNoFiltering);
}

void BM_BusSwitching(benchmark::State& state) {
  const auto g = gen::make_bus(library(), bench::bus_config(
                                              static_cast<std::size_t>(state.range(0))));
  run_mode(state, g, noise::AnalysisMode::kSwitchingWindows);
}

void BM_BusNoiseWindows(benchmark::State& state) {
  const auto g = gen::make_bus(library(), bench::bus_config(
                                              static_cast<std::size_t>(state.range(0))));
  run_mode(state, g, noise::AnalysisMode::kNoiseWindows);
}

void BM_LogicNoiseWindows(benchmark::State& state) {
  const auto g = gen::make_rand_logic(
      library(), bench::logic_config(static_cast<std::size_t>(state.range(0))));
  run_mode(state, g, noise::AnalysisMode::kNoiseWindows);
}

// Thread scaling of the staged pipeline on the suite's largest generated
// design (D5-logic10k): wall time per analysis vs. Options::threads. The
// per-phase telemetry surfaces as counters, so a run shows where the
// added threads went. Speedup at t threads = time(threads=1) / time(t).
void BM_ThreadScaling(benchmark::State& state) {
  static const gen::Generated g =
      gen::make_rand_logic(library(), bench::logic_config(10000));
  static const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.mode = noise::AnalysisMode::kNoiseWindows;
  o.clock_period = g.sta_options.clock_period;
  o.threads = static_cast<int>(state.range(0));
  noise::Telemetry tel;
  for (auto _ : state) {
    const noise::Result r = noise::analyze(g.design, g.para, timing, o);
    tel = r.telemetry;
    benchmark::DoNotOptimize(r.violations.size());
  }
  state.counters["threads"] = static_cast<double>(tel.threads);
  state.counters["estimate_ms"] = tel.estimate_seconds * 1e3;
  state.counters["propagate_ms"] = tel.propagate_seconds * 1e3;
  state.counters["endpoints_ms"] = tel.endpoints_seconds * 1e3;
}

void BM_StaOnly(benchmark::State& state) {
  const auto g = gen::make_bus(library(), bench::bus_config(
                                              static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    benchmark::DoNotOptimize(timing.passes);
  }
}

// STA alone on the logic clouds (D4/D5), whose flops launch behind a clock
// tree: the fixpoint's later sweeps show here, not on the buses above.
void BM_StaLogic(benchmark::State& state) {
  const auto g = gen::make_rand_logic(
      library(), bench::logic_config(static_cast<std::size_t>(state.range(0))));
  int passes = 0;
  for (auto _ : state) {
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    passes = timing.passes;
    benchmark::DoNotOptimize(passes);
  }
  state.counters["passes"] = static_cast<double>(passes);
}

BENCHMARK(BM_BusNoFilter)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BusSwitching)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BusNoiseWindows)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LogicNoiseWindows)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_StaOnly)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StaLogic)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so a bench run can also leave
// machine-readable run records: with NW_STATS_JSON=<path> set, one analysis
// of the D1 bus is exported in the --stats-json schema after the benchmarks
// finish; NW_STATS_JSON_LOGIC10K=<path> additionally records the D5 logic
// cloud (the design the per-kernel phase timings are baselined on).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("NW_STATS_JSON")) {
    nw::bench::write_run_record(path, library());
  }
  if (const char* path = std::getenv("NW_STATS_JSON_LOGIC10K")) {
    nw::bench::write_run_record(path, library(), "logic10k");
  }
  return 0;
}
