// Validate the analytic glitch models against the built-in MNA transient
// engine on one victim/aggressor pair.
#include <iostream>

#include "gen/bus.hpp"
#include "noise/glitch_models.hpp"
#include "report/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nw;
  const lib::Library library = lib::default_library();

  gen::BusConfig cfg;
  cfg.bits = 8;
  cfg.segments = 4;
  gen::Generated g = gen::make_bus(library, cfg);

  const NetId victim = *g.design.find_net("w3");
  const NetId aggressor = *g.design.find_net("w4");
  const double slew = 25 * PS;
  const double vdd = library.vdd();

  // Golden: full-cluster MNA transient.
  const spice::TranOptions tran{2 * NS, 0.25 * PS};
  const noise::GlitchEstimate golden =
      noise::estimate_mna(g.design, g.para, victim, aggressor, slew, vdd, tran);

  const noise::CouplingScenario sc =
      noise::scenario_for(g.design, g.para, victim, aggressor, slew, vdd);
  std::cout << "scenario: Rh = " << sc.r_hold << " ohm, Cg = "
            << report::fmt_ff(sc.c_ground) << ", Cc = " << report::fmt_ff(sc.c_couple)
            << ", tr = " << report::fmt_ps(sc.slew) << "\n\n";

  report::TextTable table({"model", "peak", "width", "peak err vs golden"});
  auto row = [&](const char* name, const noise::GlitchEstimate& e) {
    const double err = golden.peak > 0.0 ? (e.peak - golden.peak) / golden.peak : 0.0;
    table.add_row({name, report::fmt_mv(e.peak), report::fmt_ps(e.width),
                   report::fmt_fixed(100.0 * err, 1) + " %"});
  };
  row("mna-golden", golden);
  row("charge-sharing", noise::estimate_charge_sharing(sc));
  row("devgan-bound", noise::estimate_devgan(sc));
  row("two-pi", noise::estimate_two_pi(sc));
  table.print(std::cout);
  return 0;
}
