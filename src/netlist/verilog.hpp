// Structural netlist text format (".nv", a Verilog-lite).
//
// noisewin's exchange triple is .nlib (library) + .nv (netlist) + .nwspef
// (parasitics): enough to run the whole analysis from files, which is what
// the CLI driver does. The format is line-oriented:
//
//   module <name>
//   input <port> <net> [drive <ohm>] [slew <s>]
//   output <port> <net> [cap <F>]
//   wire <net>
//   inst <name> <cell> <PIN>=<net> [<PIN>=<net> ...]
//   endmodule
//
// Nets must be declared (as wire or via a port line) before use; pins
// named in `inst` lines must exist on the cell; port names are unique.
//
// Round-trip contract: write_netlist declares every net as a `wire` line in
// NetId order before the port lines, and read_netlist numbers nets in the
// order they are first declared, so reading back what write_netlist printed
// for `d` gives the same NetIds, InstIds and port order as `d`, and writing
// that again gives the same bytes. Analyses that order work by NetId
// (aggressor lists, summation order) therefore give the same bits from
// files as in memory.
//
// Cost: reading is linear in the file. Each net, instance, cell and pin
// name is one hashed lookup on a slice of the line, with no per-token
// string copies.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/design.hpp"

namespace nw::net {

void write_netlist(std::ostream& os, const Design& design);

/// Parse; throws std::runtime_error (with a line number) on malformed
/// input, unknown cells/pins, or connectivity errors.
[[nodiscard]] Design read_netlist(std::istream& is, const lib::Library& library);

}  // namespace nw::net
