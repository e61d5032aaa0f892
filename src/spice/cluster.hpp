// Victim-cluster circuit extraction.
//
// Noise on a victim net is a local phenomenon: the victim's RC tree, its
// holding driver, its receivers' pin loads, the coupling caps, and the
// excited aggressor nets behind their drivers. This builder carves that
// cluster out of a full Design/Parasitics into a spice::Circuit, used both
// by the MNA-exact glitch model and by the golden-reference accuracy
// experiments. Quiet neighbours are treated as AC ground (their coupling
// caps are grounded), the standard signoff simplification. The victim is
// held low, so its glitch is positive-going from 0 V.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/design.hpp"
#include "parasitics/rcnet.hpp"
#include "spice/circuit.hpp"

namespace nw::spice {

/// One switching aggressor in the cluster.
struct AggressorExcitation {
  NetId net;
  double start = 0.0;      ///< ramp start time [s]
  double slew = 30e-12;    ///< transition time [s]
  bool rising = true;      ///< direction of the aggressor edge
};

struct ClusterSpec {
  NetId victim;
  std::vector<AggressorExcitation> aggressors;
  double vdd = 1.2;
};

struct Cluster {
  Circuit circuit;
  std::vector<std::size_t> victim_nodes;  ///< circuit node per victim RC node
  std::size_t victim_probe = 0;           ///< far-end victim node
};

/// Build the cluster circuit. A 0-ohm driver becomes an ideal source on
/// its net's root node: a 0 V source for the victim's holder, the ramp
/// itself for an aggressor. Throws std::invalid_argument
/// if an aggressor equals the victim or appears twice.
[[nodiscard]] Cluster build_cluster(const net::Design& design,
                                    const para::Parasitics& para,
                                    const ClusterSpec& spec);

/// Output resistance of the pin driving `net`: cell drive/holding
/// resistance for instance pins, port drive resistance for input ports.
/// `holding` selects the quiet-state (holding) value.
[[nodiscard]] double driver_resistance(const net::Design& design, NetId net,
                                       bool holding);

}  // namespace nw::spice
