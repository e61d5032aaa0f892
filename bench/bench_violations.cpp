// R-T2: the headline pessimism-reduction table — noise violations and
// noisy nets under no filtering / switching windows / noise windows.
//
// Expected shape (paper-class): violations(no-filter) >> violations
// (switching) >= violations(noise windows), with order-of-magnitude
// reduction on designs whose timing windows are dispersed.
#include <iostream>

#include "bench/suite.hpp"
#include "noise/analyzer.hpp"
#include "report/table.hpp"
#include "sta/sta.hpp"

int main() {
  using namespace nw;
  const lib::Library library = lib::default_library();
  std::cout << "R-T2: noise violations by filtering mode\n\n";

  report::TextTable t({"design", "endpoints", "mode", "violations", "noisy nets",
                       "aggr considered", "aggr filtered", "analysis ms"});
  for (const auto& c : bench::make_suite(library)) {
    const sta::Result timing =
        sta::run(c.generated.design, c.generated.para, c.generated.sta_options);
    for (const auto mode :
         {noise::AnalysisMode::kNoFiltering, noise::AnalysisMode::kSwitchingWindows,
          noise::AnalysisMode::kNoiseWindows}) {
      noise::Options o;
      o.mode = mode;
      o.clock_period = c.generated.sta_options.clock_period;
      double seconds = 0.0;
      const noise::Result r = [&] {
        const obs::Span span("analysis", obs::SpanKind::kPhase, &seconds);
        return noise::analyze(c.generated.design, c.generated.para, timing, o);
      }();
      t.add_row({c.name, std::to_string(r.endpoints_checked), noise::to_string(mode),
                 std::to_string(r.violations.size()), std::to_string(r.noisy_nets),
                 std::to_string(r.aggressors_considered),
                 std::to_string(r.aggressors_filtered_temporal),
                 report::fmt_fixed(seconds * 1e3, 1)});
    }
  }
  t.print(std::cout);
  std::cout << "\nShape check: violations must be monotone non-increasing down "
               "each design's three rows.\n";
  return 0;
}
