// R-T6: glitch-model ablation — how the model choice trades analysis time
// against reported violations (conservatism) on the same designs.
//
// Expected shape: charge-sharing/devgan report the most violations (they
// are the loosest upper bounds), two-pi fewer, reduced-mna fewest among
// the static models while staying conservative; runtime rises with model
// fidelity.
#include <iostream>

#include "bench/suite.hpp"
#include "noise/analyzer.hpp"
#include "report/table.hpp"
#include "sta/sta.hpp"

int main() {
  using namespace nw;
  const lib::Library library = lib::default_library();
  std::cout << "R-T6: glitch-model ablation (mode = noise-windows)\n\n";

  report::TextTable t({"design", "model", "violations", "noisy nets", "analysis ms"});
  for (const auto* name : {"D1", "D4"}) {
    gen::Generated g = (name[1] == '1')
                           ? gen::make_bus(library, bench::bus_config(64))
                           : gen::make_rand_logic(library, bench::logic_config(1000));
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    for (const auto model :
         {noise::GlitchModel::kChargeSharing, noise::GlitchModel::kDevgan,
          noise::GlitchModel::kTwoPi, noise::GlitchModel::kReducedMna}) {
      noise::Options o;
      o.model = model;
      o.clock_period = g.sta_options.clock_period;
      double seconds = 0.0;
      const noise::Result r = [&] {
        const obs::Span span("analysis", obs::SpanKind::kPhase, &seconds);
        return noise::analyze(g.design, g.para, timing, o);
      }();
      t.add_row({name, noise::to_string(model), std::to_string(r.violations.size()),
                 std::to_string(r.noisy_nets), report::fmt_fixed(seconds * 1e3, 1)});
    }
  }
  t.print(std::cout);
  return 0;
}
