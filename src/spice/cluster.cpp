#include "spice/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "parasitics/reduce.hpp"

namespace nw::spice {

double driver_resistance(const net::Design& design, NetId net, bool holding) {
  return design.driver_resistance(net, holding);
}

namespace {

/// Instantiate one net's RC tree into the circuit; returns circuit node per
/// RC node. Load pin caps become grounded caps at their attachment points.
std::vector<std::size_t> emit_net(Circuit& ckt, const net::Design& design,
                                  const para::Parasitics& para, NetId id,
                                  const std::string& prefix) {
  const para::RcNet& rc = para.net(id);
  std::vector<std::size_t> nodes(rc.node_count());
  for (std::uint32_t n = 0; n < rc.node_count(); ++n) {
    nodes[n] = ckt.add_node(prefix + "_" + std::to_string(n));
    if (rc.node(n).cground > 0.0) ckt.add_cap(nodes[n], 0, rc.node(n).cground);
  }
  for (const auto& r : rc.resistors()) ckt.add_res(nodes[r.a], nodes[r.b], r.r);
  for (const PinId load : design.net(id).loads) {
    const double cap = design.pin_cap(load);
    if (cap <= 0.0) continue;
    auto n = rc.node_of_pin(load);
    if (n >= rc.node_count()) n = 0;  // unattached load lumps at the driver
    ckt.add_cap(nodes[n], 0, cap);
  }
  return nodes;
}

}  // namespace

Cluster build_cluster(const net::Design& design, const para::Parasitics& para,
                      const ClusterSpec& spec) {
  Cluster cl;
  Circuit& ckt = cl.circuit;

  std::unordered_set<NetId::value_type> seen{spec.victim.value()};
  for (const auto& a : spec.aggressors) {
    if (a.net == spec.victim) {
      throw std::invalid_argument("build_cluster: aggressor equals victim");
    }
    if (!seen.insert(a.net.value()).second) {
      throw std::invalid_argument("build_cluster: duplicate aggressor net");
    }
  }

  // Victim tree + holding driver (to ground). A 0-ohm driver is an ideal
  // source on the root node: a 0 V source, or the aggressor's ramp.
  cl.victim_nodes = emit_net(ckt, design, para, spec.victim,
                             "v_" + design.net(spec.victim).name);
  const double r_hold = driver_resistance(design, spec.victim, /*holding=*/true);
  if (r_hold <= 0.0) {
    ckt.add_vsrc(cl.victim_nodes[0], 0, Pwl::dc(0.0));
  } else {
    ckt.add_res(cl.victim_nodes[0], 0, r_hold);
  }

  // Aggressor trees + switching drivers.
  std::unordered_map<NetId::value_type, std::vector<std::size_t>> agg_nodes;
  for (const auto& a : spec.aggressors) {
    auto nodes = emit_net(ckt, design, para, a.net, "a_" + design.net(a.net).name);
    const double r_drv = driver_resistance(design, a.net, /*holding=*/false);
    const double v0 = a.rising ? 0.0 : spec.vdd;
    const double v1 = a.rising ? spec.vdd : 0.0;
    if (r_drv > 0.0) {
      const std::size_t src = ckt.add_node("src_" + design.net(a.net).name);
      ckt.add_vsrc(src, 0, Pwl::ramp(a.start, a.slew, v0, v1));
      ckt.add_res(nodes[0], src, r_drv);
    } else {
      ckt.add_vsrc(nodes[0], 0, Pwl::ramp(a.start, a.slew, v0, v1));
    }
    agg_nodes.emplace(a.net.value(), std::move(nodes));
  }

  // Coupling caps: in-cluster <-> in-cluster become real coupling caps;
  // cluster <-> external are grounded on the cluster side (quiet neighbour
  // == AC ground). Each cap is processed once.
  auto cluster_node = [&](NetId n, std::uint32_t rc_node) -> std::size_t {
    if (n == spec.victim) return cl.victim_nodes.at(rc_node);
    return agg_nodes.at(n.value()).at(rc_node);
  };
  std::unordered_set<std::size_t> done;
  for (const auto net_id : seen) {
    for (const auto ci : para.couplings_of(NetId{net_id})) {
      if (!done.insert(ci).second) continue;
      const auto& cc = para.coupling(ci);
      const bool a_in = seen.contains(cc.net_a.value());
      const bool b_in = seen.contains(cc.net_b.value());
      if (a_in && b_in) {
        ckt.add_cap(cluster_node(cc.net_a, cc.node_a), cluster_node(cc.net_b, cc.node_b),
                    cc.c);
      } else if (a_in) {
        ckt.add_cap(cluster_node(cc.net_a, cc.node_a), 0, cc.c);
      } else if (b_in) {
        ckt.add_cap(cluster_node(cc.net_b, cc.node_b), 0, cc.c);
      }
    }
  }

  // Probe the electrically farthest victim node (worst receiver).
  const para::RcNet& vrc = para.net(spec.victim);
  if (vrc.res_count() > 0) {
    const auto delays = para::elmore_delays(vrc);
    std::uint32_t best = 0;
    for (std::uint32_t n = 1; n < vrc.node_count(); ++n) {
      if (delays[n] > delays[best]) best = n;
    }
    cl.victim_probe = cl.victim_nodes[best];
  } else {
    cl.victim_probe = cl.victim_nodes[0];
  }
  return cl;
}

}  // namespace nw::spice
