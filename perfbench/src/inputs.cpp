#include "inputs.hpp"

#include <stdexcept>

#include "bench/suite.hpp"
#include "library/liberty_io.hpp"
#include "netlist/verilog.hpp"
#include "parasitics/spef.hpp"

namespace perfbench {

using namespace nw;

Generated generate(bool bus, std::size_t size, std::uint64_t seed) {
  Generated out;
  out.library = std::make_unique<lib::Library>(lib::default_library());
  if (bus) {
    gen::BusConfig cfg = bench::bus_config(size);
    cfg.seed = seed;
    out.g.emplace(gen::make_bus(*out.library, cfg));
  } else {
    gen::RandLogicConfig cfg = bench::logic_config(size);
    cfg.seed = seed;
    out.g.emplace(gen::make_rand_logic(*out.library, cfg));
  }
  return out;
}

Inputs write_inputs(const Generated& gen, const std::string& dir, const std::string& stem) {
  Inputs in{dir + "/" + stem + ".nlib", dir + "/" + stem + ".nv", dir + "/" + stem + ".nwspef",
            gen.g->sta_options};
  std::ofstream lf(in.lib_path);
  lib::write_library(lf, *gen.library);
  std::ofstream nf(in.netlist_path);
  net::write_netlist(nf, gen.g->design);
  std::ofstream pf(in.spef_path);
  para::write_spef(pf, gen.g->design, gen.g->para);
  if (!lf.flush() || !nf.flush() || !pf.flush()) {
    throw std::runtime_error("cannot write inputs under " + dir);
  }
  return in;
}

std::ifstream open_input(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  return f;
}

}  // namespace perfbench
