#include "noise/delay_impact.hpp"

#include <algorithm>

#include "noise/kernels.hpp"
#include "util/executor.hpp"

namespace nw::noise {

namespace {

/// Per-net impact: the worst combination of the net's contributions
/// inside the victim's transition window (anywhere, under no-filtering,
/// where every contribution aligns with the edge). `affected` reports
/// whether the net counts toward the summary.
DelayImpact impact_for_net(const sta::NetTiming& t, const NetNoise& nn,
                           const Options& opt, double vdd, CombineScratch& scratch,
                           char& affected) {
  DelayImpact di;
  if (!t.switches()) return di;  // a quiet net has no edge to shift
  if (nn.contributions.empty()) return di;

  const Interval edge = opt.mode == AnalysisMode::kNoFiltering
                            ? Interval::everything()
                            : t.window.dilated(t.slew_max, t.slew_max);
  const double peak = combine_flat(nn.contributions, opt.mode, edge, opt.constraints,
                                   CombineView::kAll, scratch)
                          .peak;
  if (peak < opt.min_peak) return di;

  affected = 1;
  di.peak_during_transition = peak;
  di.delta_delay = (peak / vdd) * t.slew_max;
  return di;
}

}  // namespace

DelayImpactSummary compute_delay_impact(const net::Design& design,
                                        const sta::Result& sta_result,
                                        const Result& noise_result,
                                        const Options& opt) {
  if (noise_result.nets.size() != design.net_count() ||
      sta_result.nets.size() != design.net_count()) {
    throw std::invalid_argument("compute_delay_impact: result/design mismatch");
  }
  const double vdd = design.library().vdd();

  DelayImpactSummary out;
  out.nets.assign(design.net_count(), DelayImpact{});

  // Parallel over nets into pre-sized slots; totals fold in index order so
  // the floating-point sums match the serial run exactly.
  std::vector<char> affected(design.net_count(), 0);
  util::Executor exec(opt.threads);
  exec.parallel_for(design.net_count(), 32, [&](std::size_t begin, std::size_t end) {
    CombineScratch scratch;
    for (std::size_t i = begin; i < end; ++i) {
      out.nets[i] = impact_for_net(sta_result.nets[i], noise_result.nets[i], opt, vdd,
                                   scratch, affected[i]);
    }
  });
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    if (!affected[i]) continue;
    out.total_delta += out.nets[i].delta_delay;
    out.max_delta = std::max(out.max_delta, out.nets[i].delta_delay);
    ++out.affected_nets;
  }
  return out;
}

}  // namespace nw::noise
