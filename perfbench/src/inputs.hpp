// Seeded benchmark inputs: generation from the shared suite configs and
// the .nlib/.nv/.nwspef files the timed work reads back.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "gen/bus.hpp"
#include "library/library.hpp"
#include "sta/sta.hpp"

namespace perfbench {

/// Paths of the written inputs plus the STA constraints that go with them.
struct Inputs {
  std::string lib_path;
  std::string netlist_path;
  std::string spef_path;
  nw::sta::Options sta;
};

/// A generated design and the library it references.
struct Generated {
  std::unique_ptr<nw::lib::Library> library;
  std::optional<nw::gen::Generated> g;
};

/// bench::bus_config(size) or bench::logic_config(size) with `seed`
/// overriding the config's own seed.
[[nodiscard]] Generated generate(bool bus, std::size_t size, std::uint64_t seed);

/// Write <dir>/<stem>.nlib, .nv and .nwspef.
[[nodiscard]] Inputs write_inputs(const Generated& gen, const std::string& dir,
                                  const std::string& stem);

/// Open an input file for reading; throws naming the path on failure.
[[nodiscard]] std::ifstream open_input(const std::string& path);

}  // namespace perfbench
