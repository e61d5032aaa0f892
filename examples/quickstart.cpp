// Quickstart: build a tiny coupled design by hand, run STA, run static
// noise analysis in all three modes, and print the report.
//
// The circuit: two parallel wires w0 (victim) and w1 (aggressor) coupled by
// 8 fF, each driven from a primary input and received by an inverter.
#include <iostream>
#include <string>

#include "library/library.hpp"
#include "netlist/design.hpp"
#include "noise/analyzer.hpp"
#include "parasitics/rcnet.hpp"
#include "report/table.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

// A noise window as "{[lo, hi] u [lo, hi] ...}".
std::string window_str(const nw::IntervalSet& window) {
  std::string s = "{";
  for (const nw::Interval& iv : window.intervals()) {
    if (s.size() > 1) s += " u ";
    s += iv.str();
  }
  return s + "}";
}

int main() {
  using namespace nw;

  // 1. A generated standard-cell library (see DESIGN.md: substitution for
  //    proprietary liberty data).
  const lib::Library library = lib::default_library();
  std::cout << "library '" << library.name() << "' with " << library.cells().size()
            << " cells, vdd = " << library.vdd() << " V\n\n";

  // 2. The design: in0 -> w0 -> INV -> out0, in1 -> w1 -> INV -> out1.
  net::Design d(library, "quickstart");
  const NetId w0 = d.add_net("w0");
  const NetId w1 = d.add_net("w1");
  d.add_input_port("in0", w0, {500 * OHM, 30 * PS});
  d.add_input_port("in1", w1, {500 * OHM, 20 * PS});
  const InstId rx0 = d.add_instance("rx0", "INV_X1");
  const InstId rx1 = d.add_instance("rx1", "INV_X1");
  d.connect(rx0, "A", w0);
  d.connect(rx1, "A", w1);
  const NetId y0 = d.add_net("y0");
  const NetId y1 = d.add_net("y1");
  d.connect(rx0, "Y", y0);
  d.connect(rx1, "Y", y1);
  d.add_output_port("out0", y0);
  d.add_output_port("out1", y1);

  // 3. Parasitics: each wire is a 2-segment RC ladder; segments couple.
  para::Parasitics p(d.net_count());
  for (const NetId w : {w0, w1}) {
    para::RcNet& rc = p.net(w);
    const auto mid = rc.add_node(2 * FF);
    const auto far = rc.add_node(2 * FF);
    rc.add_res(0, mid, 50 * OHM);
    rc.add_res(mid, far, 50 * OHM);
    rc.attach_pin(far, d.net(w).loads.front());
  }
  p.add_coupling(w0, 1, w1, 1, 4 * FF);
  p.add_coupling(w0, 2, w1, 2, 4 * FF);
  p.net(y0).add_cap(0, 1 * FF);
  p.net(y1).add_cap(0, 1 * FF);

  // 4. STA: the aggressor (in1) switches in a late window, so it cannot
  //    align with anything early.
  sta::Options sopt;
  sopt.clock_period = 1 * NS;
  sopt.input_arrivals["in0"] = Interval{0.0, 50 * PS};
  sopt.input_arrivals["in1"] = Interval{300 * PS, 420 * PS};
  const sta::Result timing = sta::run(d, p, sopt);
  std::cout << "STA: w1 switching window = " << timing.net(w1).window.str()
            << ", slew " << report::fmt_ps(timing.net(w1).slew_min) << " .. "
            << report::fmt_ps(timing.net(w1).slew_max) << "\n\n";

  // 5. Noise analysis under all three filtering regimes.
  report::TextTable table({"mode", "w0 peak", "w0 width", "noise window",
                           "violations"});
  for (const auto mode :
       {noise::AnalysisMode::kNoFiltering, noise::AnalysisMode::kSwitchingWindows,
        noise::AnalysisMode::kNoiseWindows}) {
    noise::Options nopt;
    nopt.mode = mode;
    nopt.clock_period = sopt.clock_period;
    const noise::Result r = noise::analyze(d, p, timing, nopt);
    const noise::NetNoise& nn = r.net(w0);
    table.add_row({noise::to_string(mode), report::fmt_mv(nn.total_peak),
                   report::fmt_ps(nn.width),
                   mode == noise::AnalysisMode::kNoFiltering ? "(always)"
                                                             : window_str(nn.window),
                   std::to_string(r.violations.size())});
  }
  table.print(std::cout);

  std::cout << "\nThe victim's glitch is identical in every mode here (one "
               "aggressor),\nbut the noise window pins down *when* it can "
               "occur - the information\nthe latch sensitivity check uses on "
               "real designs.\n";
  return 0;
}
