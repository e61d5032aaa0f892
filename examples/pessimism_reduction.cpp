// Pessimism reduction on a sequential design: generate a pipeline whose
// capture-flop data nets are coupled, and show that the latch
// sensitivity-window check (noise windows) clears violations the
// amplitude-only analysis reports.
#include <algorithm>
#include <iostream>

#include "gen/pipeline.hpp"
#include "noise/analyzer.hpp"
#include "report/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nw;
  const lib::Library library = lib::default_library();

  gen::PipelineConfig cfg;
  cfg.paths = 48;
  cfg.coupling_cap = 22 * FF;
  gen::Generated g = gen::make_pipeline(library, cfg);

  std::cout << "pipeline: " << g.design.instance_count() << " instances, "
            << g.design.sequentials().size() << " flops, "
            << g.para.couplings().size() << " coupling caps, period "
            << report::fmt_ps(g.sta_options.clock_period) << "\n\n";

  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  double worst_setup = timing.endpoints.empty() ? 0.0 : 1e30;
  for (const sta::Endpoint& e : timing.endpoints) {
    worst_setup = std::min(worst_setup, e.required - e.arrival);
  }
  std::cout << "worst setup slack: " << report::fmt_ps(worst_setup) << "\n\n";

  report::TextTable table({"mode", "endpoints", "violations", "worst slack"});
  for (const auto mode :
       {noise::AnalysisMode::kNoFiltering, noise::AnalysisMode::kSwitchingWindows,
        noise::AnalysisMode::kNoiseWindows}) {
    noise::Options nopt;
    nopt.mode = mode;
    nopt.clock_period = g.sta_options.clock_period;
    const noise::Result r = noise::analyze(g.design, g.para, timing, nopt);
    double worst = 1e30;
    for (const double s : r.endpoint_slacks) worst = std::min(worst, s);
    table.add_row({noise::to_string(mode), std::to_string(r.endpoints_checked),
                   std::to_string(r.violations.size()),
                   r.endpoint_slacks.empty() ? "-" : report::fmt_mv(worst)});
  }
  table.print(std::cout);

  std::cout << "\nGlitches land early in the cycle; the capture window sits\n"
               "at the next clock edge. Amplitude-only modes flag them all,\n"
               "the noise-window mode keeps only those that can actually be\n"
               "sampled.\n";
  return 0;
}
