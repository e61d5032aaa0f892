// SPICE deck generation: render a Circuit as a standard .sp netlist
// (resistors, capacitors, PWL voltage sources, .tran) runnable by
// ngspice/HSPICE for external cross-validation of the built-in transient
// engine.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/transient.hpp"

namespace nw::spice {

struct DeckOptions {
  std::string title = "noisewin cluster";
  TranOptions tran;
  std::vector<std::size_t> probes;  ///< nodes to .print
};

void write_deck(std::ostream& os, const Circuit& ckt, const DeckOptions& opt);
[[nodiscard]] std::string write_deck_string(const Circuit& ckt, const DeckOptions& opt);

}  // namespace nw::spice
