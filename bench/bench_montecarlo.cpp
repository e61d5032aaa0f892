// R-F6: Monte-Carlo soundness — sample random aggressor alignments within
// their switching windows, simulate each with the golden engine, and show
// that the static noise-window bound covers every sample (while being far
// tighter than the no-filtering bound).
#include <iostream>

#include "gen/bus.hpp"
#include "noise/analyzer.hpp"
#include "report/table.hpp"
#include "spice/cluster.hpp"
#include "spice/transient.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

int main() {
  using namespace nw;
  const lib::Library library = lib::default_library();

  gen::BusConfig cfg;
  cfg.bits = 8;
  cfg.segments = 3;
  cfg.coupling_adj = 5 * FF;
  cfg.stagger_groups = 2;
  cfg.stagger = 400 * PS;
  cfg.window_width = 120 * PS;
  cfg.jitter = 0.0;
  gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  const NetId victim = *g.design.find_net("w4");
  noise::Options nopt;
  nopt.mode = noise::AnalysisMode::kNoiseWindows;
  nopt.clock_period = g.sta_options.clock_period;
  const noise::Result nres = noise::analyze(g.design, g.para, timing, nopt);
  const noise::NetNoise& nn = nres.net(victim);

  noise::Options none = nopt;
  none.mode = noise::AnalysisMode::kNoFiltering;
  const double unfiltered =
      noise::analyze(g.design, g.para, timing, none).net(victim).total_peak;

  // Aggressors of w4 with their STA windows.
  struct Agg {
    NetId net;
    Interval window;
    double slew;
  };
  std::vector<Agg> aggs;
  for (const auto& c : nn.contributions) {
    if (c.is_propagated()) continue;
    const auto& t = timing.net(c.aggressor);
    aggs.push_back({c.aggressor, t.window, std::max(t.slew_min, 1e-12)});
  }

  const int kSamples = 120;
  Rng rng(7);
  RunningStats peaks;
  double worst = 0.0;
  for (int s = 0; s < kSamples; ++s) {
    spice::ClusterSpec spec;
    spec.victim = victim;
    spec.vdd = library.vdd();
    for (const auto& a : aggs) {
      const double start = rng.uniform(a.window.lo, a.window.hi);
      spec.aggressors.push_back({a.net, start, a.slew, true});
    }
    const spice::Cluster cl = spice::build_cluster(g.design, g.para, spec);
    const spice::TransientResult sim = spice::simulate(cl.circuit, {2.5 * NS, 1 * PS});
    const double peak =
        spice::measure_glitch(sim.waveform(cl.victim_probe), 0.0).peak;
    peaks.add(peak);
    worst = std::max(worst, peak);
  }

  std::cout << "R-F6: Monte-Carlo alignment sampling vs static bounds (victim w4, "
            << aggs.size() << " aggressors, " << kSamples << " samples)\n\n";
  report::TextTable t({"quantity", "peak"});
  t.add_row({"MC mean", report::fmt_mv(peaks.mean())});
  t.add_row({"MC max", report::fmt_mv(worst)});
  t.add_row({"static bound (noise windows)", report::fmt_mv(nn.total_peak)});
  t.add_row({"static bound (no filtering)", report::fmt_mv(unfiltered)});
  t.print(std::cout);

  const bool sound = nn.total_peak >= worst * 0.999;
  std::cout << "\nsoundness (windowed bound >= MC max): " << (sound ? "PASS" : "FAIL")
            << "\ntightness: windowed bound is "
            << report::fmt_fixed(nn.total_peak / std::max(worst, 1e-12), 2)
            << "x the MC max; the unfiltered bound is "
            << report::fmt_fixed(unfiltered / std::max(worst, 1e-12), 2) << "x\n";
  return sound ? 0 : 1;
}
