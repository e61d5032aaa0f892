// R-T7: incremental (ECO) re-analysis speedup vs a full re-run after a
// single-net coupling change, under the reduced-mna model, which solves a
// circuit per victim/aggressor pair.
#include <benchmark/benchmark.h>

#include "bench/suite.hpp"
#include "noise/analyzer.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace {

using namespace nw;

struct Setup {
  lib::Library library = lib::default_library();
  gen::Generated g;
  sta::Result timing;
  noise::Options opt;
  noise::Result baseline;
  std::vector<NetId> changed;

  explicit Setup(std::size_t bits)
      : g(gen::make_bus(library, bench::bus_config(bits))) {
    timing = sta::run(g.design, g.para, g.sta_options);
    opt.model = noise::GlitchModel::kReducedMna;
    opt.clock_period = g.sta_options.clock_period;
    baseline = noise::analyze(g.design, g.para, timing, opt);
    // ECO: add one coupling segment between two mid-bus wires.
    const NetId a = *g.design.find_net("w" + std::to_string(bits / 2));
    const NetId b = *g.design.find_net("w" + std::to_string(bits / 2 + 1));
    g.para.add_coupling(a, 1, b, 1, 6 * FF);
    changed = {a, b};
  }
};

void BM_FullReanalysis(benchmark::State& state) {
  Setup s(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const noise::Result r = noise::analyze(s.g.design, s.g.para, s.timing, s.opt);
    benchmark::DoNotOptimize(r.violations.size());
  }
}

void BM_IncrementalReanalysis(benchmark::State& state) {
  Setup s(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const noise::Result r = noise::analyze_incremental(s.g.design, s.g.para, s.timing,
                                                       s.opt, s.baseline, s.changed);
    benchmark::DoNotOptimize(r.violations.size());
  }
}

BENCHMARK(BM_FullReanalysis)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalReanalysis)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
