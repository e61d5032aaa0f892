// Microbenchmarks of the flat SoA kernels (noise/kernels.hpp) against the
// per-item operations they batch, on synthetic CSR rows of varying
// fan-in — isolating the kernel win from whole-pipeline effects:
//
//   BM_PeaksScalar/Vector    per-pair estimate_two_pi() calls vs. one
//                            peaks_two_pi() sweep over the packed row
//   BM_CombineScalar/Vector  WeightedWindow materialization + scan vs.
//                            combine_flat()'s in-place gather + clip
//   BM_UnionScalar/Vector    k incremental IntervalSet::add() rebalances
//                            vs. one union_flat() sort + sweep
//
// Each pair is checked for bit-identical output before timing (the kernels'
// core contract). With NW_STATS_JSON=<path> set, per-kernel wall times land
// in a --stats-json record tracked by tools/bench_history.py.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <utility>
#include <vector>

#include "bench/suite.hpp"
#include "noise/analyzer.hpp"
#include "noise/context.hpp"
#include "noise/glitch_models.hpp"
#include "noise/kernels.hpp"
#include "session/stats_json.hpp"
#include "util/interval.hpp"
#include "util/scanline.hpp"

namespace {

using namespace nw;

constexpr double kVdd = 1.2;

/// One synthetic CSR row of victim/aggressor estimation operands.
struct Row {
  std::vector<double> r_hold, c_ground, c_couple, slew;
};

Row make_row(std::size_t fanin, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> rh(500.0, 5000.0);
  std::uniform_real_distribution<double> cg(1e-15, 50e-15);
  std::uniform_real_distribution<double> cc(0.5e-15, 10e-15);
  std::uniform_real_distribution<double> sl(10e-12, 100e-12);
  Row row;
  for (std::size_t i = 0; i < fanin; ++i) {
    row.r_hold.push_back(rh(rng));
    row.c_ground.push_back(cg(rng));
    row.c_couple.push_back(cc(rng));
    row.slew.push_back(sl(rng));
  }
  return row;
}

void run_scalar_peaks(const Row& row, std::vector<double>& peak,
                      std::vector<double>& width, std::vector<double>& delay) {
  for (std::size_t i = 0; i < row.r_hold.size(); ++i) {
    noise::CouplingScenario s;
    s.r_hold = row.r_hold[i];
    s.c_ground = row.c_ground[i];
    s.c_couple = row.c_couple[i];
    s.slew = row.slew[i];
    s.vdd = kVdd;
    const noise::GlitchEstimate g = noise::estimate_two_pi(s);
    peak[i] = g.peak;
    width[i] = g.width;
    delay[i] = g.peak_delay;
  }
}

/// Bit-exact equality of two double arrays (the kernels' contract is
/// bit-identity, so plain == would mask a -0.0/NaN drift).
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void check_peaks_identical(std::size_t fanin) {
  const Row row = make_row(fanin, 42);
  std::vector<double> sp(fanin), sw(fanin), sd(fanin);
  std::vector<double> vp(fanin), vw(fanin), vd(fanin);
  run_scalar_peaks(row, sp, sw, sd);
  noise::peaks_two_pi(row.r_hold, row.c_ground, row.c_couple, row.slew, kVdd, vp, vw,
                      vd);
  if (!bits_equal(sp, vp) || !bits_equal(sw, vw) || !bits_equal(sd, vd)) {
    std::fprintf(stderr, "bench_kernels: scalar/vector peak divergence\n");
    std::abort();
  }
}

void BM_PeaksScalar(benchmark::State& state) {
  const auto fanin = static_cast<std::size_t>(state.range(0));
  check_peaks_identical(fanin);
  const Row row = make_row(fanin, 42);
  std::vector<double> p(fanin), w(fanin), d(fanin);
  for (auto _ : state) {
    run_scalar_peaks(row, p, w, d);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fanin));
}

void BM_PeaksVector(benchmark::State& state) {
  const auto fanin = static_cast<std::size_t>(state.range(0));
  const Row row = make_row(fanin, 42);
  // Same tracked slabs the context's operands use in production, so this
  // record carries a nonzero kernel_buffers peak for bench_history's memory
  // gate.
  noise::KbVec<double> p(fanin), w(fanin), d(fanin);
  for (auto _ : state) {
    noise::peaks_two_pi(row.r_hold, row.c_ground, row.c_couple, row.slew, kVdd, p, w,
                        d);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fanin));
}

/// Synthetic contribution set: `n` single-interval windows scattered over a
/// nanosecond with glitch-sized peaks/widths.
std::vector<noise::Contribution> make_contributions(std::size_t n,
                                                    std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> t0(0.0, 1e-9);
  std::uniform_real_distribution<double> len(20e-12, 300e-12);
  std::uniform_real_distribution<double> pk(0.05, 0.4);
  std::vector<noise::Contribution> cs(n);
  for (std::size_t i = 0; i < n; ++i) {
    cs[i].aggressor = NetId{i + 1};
    cs[i].peak = pk(rng);
    cs[i].width = len(rng);
    const double lo = t0(rng);
    cs[i].window = IntervalSet(Interval{lo, lo + len(rng)});
  }
  return cs;
}

/// The per-item combine: materialize WeightedWindow copies, then scan.
ScanResult scalar_combine(const std::vector<noise::Contribution>& cs) {
  std::vector<WeightedWindow> items;
  items.reserve(cs.size());
  for (const auto& c : cs) {
    WeightedWindow ww;
    ww.weight = c.peak;
    ww.window = c.window;
    items.push_back(std::move(ww));
  }
  return scan_max_overlap(items);
}

void BM_CombineScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cs = make_contributions(n, 7);
  for (auto _ : state) {
    const ScanResult r = scalar_combine(cs);
    benchmark::DoNotOptimize(r.best_sum);
  }
}

void BM_CombineVector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cs = make_contributions(n, 7);
  // Cross-check once: the flat combine must reproduce the scalar scan.
  {
    noise::CombineScratch scratch;
    const noise::Combined flat = noise::combine_flat(
        cs, noise::AnalysisMode::kNoiseWindows, Interval::everything(),
        noise::Constraints{}, noise::CombineView::kAll, scratch);
    const ScanResult ref = scalar_combine(cs);
    if (std::memcmp(&flat.peak, &ref.best_sum, sizeof(double)) != 0 ||
        flat.active != ref.active) {
      std::fprintf(stderr, "bench_kernels: scalar/vector combine divergence\n");
      std::abort();
    }
  }
  noise::CombineScratch scratch;
  for (auto _ : state) {
    const noise::Combined r = noise::combine_flat(
        cs, noise::AnalysisMode::kNoiseWindows, Interval::everything(),
        noise::Constraints{}, noise::CombineView::kAll, scratch);
    benchmark::DoNotOptimize(r.peak);
  }
}

std::vector<Interval> make_intervals(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> t0(0.0, 1e-9);
  std::uniform_real_distribution<double> len(5e-12, 120e-12);
  std::vector<Interval> ivs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = t0(rng);
    ivs[i] = Interval{lo, lo + len(rng)};
  }
  return ivs;
}

void BM_UnionScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ivs = make_intervals(n, 11);
  for (auto _ : state) {
    IntervalSet set;
    for (const Interval& iv : ivs) set.add(iv);
    benchmark::DoNotOptimize(set.intervals().size());
  }
}

void BM_UnionVector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ivs = make_intervals(n, 11);
  // Cross-check once against the incremental-add reference.
  {
    IntervalSet ref;
    for (const Interval& iv : ivs) ref.add(iv);
    std::vector<Interval> scratch = ivs;
    const IntervalSet flat = noise::kernels::union_flat(scratch);
    if (!(flat == ref)) {
      std::fprintf(stderr, "bench_kernels: scalar/vector union divergence\n");
      std::abort();
    }
  }
  std::vector<Interval> scratch;
  for (auto _ : state) {
    scratch.assign(ivs.begin(), ivs.end());
    const IntervalSet set = noise::kernels::union_flat(scratch);
    benchmark::DoNotOptimize(set.intervals().size());
  }
}

BENCHMARK(BM_PeaksScalar)->Arg(8)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PeaksVector)->Arg(8)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CombineScalar)->Arg(8)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CombineVector)->Arg(8)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_UnionScalar)->Arg(16)->Arg(256)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_UnionVector)->Arg(16)->Arg(256)->Unit(benchmark::kMicrosecond);

/// Wall time of `reps` runs of `fn`, in ms.
template <typename Fn>
double time_ms(std::size_t reps, Fn&& fn) {
  double seconds = 0.0;
  {
    const obs::Span span("kernel-reps", obs::SpanKind::kPhase, &seconds);
    for (std::size_t i = 0; i < reps; ++i) fn();
  }
  return seconds * 1e3;
}

}  // namespace

// Custom main (mirrors bench_runtime): with NW_STATS_JSON=<path> set, the
// per-kernel scalar/vector wall times are exported in the --stats-json
// schema so tools/bench_history.py tracks kernel-level regressions
// independently of the end-to-end pipeline timings.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("NW_STATS_JSON")) {
    constexpr std::size_t kFanin = 256;
    constexpr std::size_t kReps = 200;
    check_peaks_identical(kFanin);
    const Row row = make_row(kFanin, 42);
    std::vector<double> p(kFanin), w(kFanin), d(kFanin);
    const double peaks_scalar = time_ms(kReps, [&] { run_scalar_peaks(row, p, w, d); });
    const double peaks_vector = time_ms(kReps, [&] {
      noise::peaks_two_pi(row.r_hold, row.c_ground, row.c_couple, row.slew, kVdd, p, w,
                          d);
    });
    const auto cs = make_contributions(kFanin, 7);
    const double combine_scalar =
        time_ms(kReps, [&] { benchmark::DoNotOptimize(scalar_combine(cs).best_sum); });
    noise::CombineScratch scratch;
    const double combine_vector = time_ms(kReps, [&] {
      benchmark::DoNotOptimize(
          noise::combine_flat(cs, noise::AnalysisMode::kNoiseWindows,
                              Interval::everything(), noise::Constraints{},
                              noise::CombineView::kAll, scratch)
              .peak);
    });
    const auto ivs = make_intervals(kFanin, 11);
    const double union_scalar = time_ms(kReps, [&] {
      IntervalSet set;
      for (const Interval& iv : ivs) set.add(iv);
      benchmark::DoNotOptimize(set.intervals().size());
    });
    std::vector<Interval> iv_scratch;
    const double union_vector = time_ms(kReps, [&] {
      iv_scratch.assign(ivs.begin(), ivs.end());
      benchmark::DoNotOptimize(noise::kernels::union_flat(iv_scratch).intervals().size());
    });

    obs::RunMeta meta;
    meta.design = "kernels-synthetic";
    meta.mode = "noise-windows";
    meta.model = "two-pi";
    meta.options_digest = "-";
    meta.build = obs::build_version();
    obs::MetricsSnapshot snap;
    const auto gauge = [&](const char* name, const char* help, double ms) {
      snap.samples.push_back(obs::wall_ms_sample(name, help, ms));
    };
    gauge("kernel_peaks_scalar_ms", "per-pair two-pi estimation", peaks_scalar);
    gauge("kernel_peaks_vector_ms", "flat two-pi sweep", peaks_vector);
    gauge("kernel_combine_scalar_ms", "WeightedWindow combine", combine_scalar);
    gauge("kernel_combine_vector_ms", "combine_flat", combine_vector);
    gauge("kernel_union_scalar_ms", "incremental IntervalSet::add", union_scalar);
    gauge("kernel_union_vector_ms", "union_flat sort + sweep", union_vector);
    std::ofstream f(path);
    // Kernel micro-benches never run the parallel analyzer; an
    // enabled:false executor section keeps the record schema-complete.
    session::Json extra = session::Json::object();
    extra.set("bench", session::bench_record_json());
    extra.set("executor", session::executor_json(noise::Result{}));
    session::write_stats_json(f, meta, snap, std::move(extra));
  }
  return 0;
}
