#include "extract/routed_bus.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace nw::gen {

RoutedGenerated make_routed_bus(const lib::Library& library, const extract::Tech& tech,
                                const RoutedBusConfig& cfg) {
  if (cfg.bits < 2) throw std::invalid_argument("make_routed_bus: need >= 2 bits");
  if (cfg.segments < 1) throw std::invalid_argument("make_routed_bus: need >= 1 segment");
  if (cfg.pitch <= cfg.width) {
    throw std::invalid_argument("make_routed_bus: pitch must exceed width");
  }

  RoutedGenerated out{net::Design(library, "rbus" + std::to_string(cfg.bits)),
                      para::Parasitics(0), sta::Options{}, {}};
  net::Design& d = out.design;
  Rng rng(cfg.seed);

  // Netlist: port -> wire -> INV -> out port (one receiver per line).
  std::vector<NetId> wire(cfg.bits);
  std::vector<extract::Route> routes;
  routes.reserve(cfg.bits);
  for (std::size_t b = 0; b < cfg.bits; ++b) {
    wire[b] = d.add_net("w" + std::to_string(b));
    d.add_input_port("in" + std::to_string(b), wire[b],
                     {cfg.port_res, cfg.port_slew});
    const InstId rx = d.add_instance("rx" + std::to_string(b), "INV_X1");
    d.connect(rx, "A", wire[b]);
    const NetId y = d.add_net("y" + std::to_string(b));
    d.connect(rx, "Y", y);
    d.add_output_port("out" + std::to_string(b), y);
  }

  // Geometry: bit b runs horizontally at y = b * pitch, split into
  // `segments` collinear pieces; the receiver pin sits at the far end.
  for (std::size_t b = 0; b < cfg.bits; ++b) {
    extract::Route r;
    r.net = wire[b];
    const double y = static_cast<double>(b) * cfg.pitch;
    const double step = cfg.length / static_cast<double>(cfg.segments);
    for (std::size_t s = 0; s < cfg.segments; ++s) {
      extract::Segment seg;
      seg.layer = cfg.layer;
      seg.width = cfg.width;
      seg.x0 = static_cast<double>(s) * step;
      seg.x1 = static_cast<double>(s + 1) * step;
      seg.y0 = seg.y1 = y;
      r.segments.push_back(seg);
    }
    r.driver_segment = 0;
    r.driver_at_start = true;
    r.pins.push_back({d.net(wire[b]).loads.front(), cfg.segments - 1, false});
    routes.push_back(std::move(r));
  }

  out.para = extract::extract(d, routes, tech, &out.stats);
  // Receiver-output nets carry a small lumped cap (no routed geometry).
  for (std::size_t b = 0; b < cfg.bits; ++b) {
    const NetId y = *d.find_net("y" + std::to_string(b));
    out.para.net(y).add_cap(0, 1e-15);
  }

  out.sta_options.clock_period = cfg.clock_period;
  const std::size_t groups = std::max<std::size_t>(cfg.stagger_groups, 1);
  for (std::size_t b = 0; b < cfg.bits; ++b) {
    const double base = static_cast<double>(b % groups) * cfg.stagger +
                        rng.uniform(0.0, 10e-12);
    out.sta_options.input_arrivals["in" + std::to_string(b)] =
        Interval{base, base + cfg.window_width};
  }
  return out;
}

}  // namespace nw::gen
