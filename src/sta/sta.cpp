#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "parasitics/reduce.hpp"

namespace nw::sta {

namespace {

/// Flat interconnect view: the Elmore delay at each load pin's RC node and
/// the lumped load each net presents to its driver.
struct WireSlabs {
  std::vector<double> wire_delay;  ///< per PinId; 0 when the pin is unattached
  std::vector<double> load_cap;    ///< per NetId: ground + pin + miller * coupling [F]
};

WireSlabs wire_slabs(const net::Design& d, const para::Parasitics& para, const Options& opt) {
  const double miller = opt.miller_factor;
  WireSlabs w;
  w.wire_delay.assign(d.pin_count(), 0.0);
  w.load_cap.assign(d.net_count(), 0.0);
  // Buffers reused across nets.
  std::vector<double> extra;             // per RC node of the current net
  std::vector<std::uint32_t> load_node;  // RC node of each load of the current net
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const NetId id{i};
    const net::Net& net = d.net(id);
    const para::RcNet& rc = para.net(id);
    // Per-node extra caps: attached pin loads plus Miller-lumped couplings.
    extra.assign(rc.node_count(), 0.0);
    load_node.clear();
    for (const PinId load : net.loads) {
      const auto node = rc.node_of_pin(load);
      load_node.push_back(node);
      const double cap = d.pin_cap(load);
      if (node < rc.node_count()) {
        extra[node] += cap;
      } else {
        extra[0] += cap;  // unattached load: lump at the driver
      }
    }
    for (const auto ci : para.couplings_of(id)) {
      const auto& cc = para.coupling(ci);
      extra[cc.node_on(id)] += miller * cc.c;
    }
    if (rc.res_count() > 0) {
      const std::vector<double> elmore = para::elmore_delays(rc, extra);
      for (std::size_t k = 0; k < net.loads.size(); ++k) {
        if (load_node[k] < rc.node_count()) {
          w.wire_delay[net.loads[k].index()] = elmore[load_node[k]];
        }
      }
    }
    double load_cap = rc.total_ground_cap();
    for (const double e : extra) load_cap += e;

    if (opt.use_ceff && rc.res_count() > 0 && net.driver.valid()) {
      const para::PiModel pi = para::pi_model(rc, extra);
      if (pi.r > 0.0) {
        const double rd = d.driver_resistance(id, /*holding=*/false);
        const double k = rd / (rd + pi.r);
        load_cap = pi.c_near + k * pi.c_far;
      }
    }
    w.load_cap[i] = load_cap;
  }
  return w;
}

/// Merge `t` into `acc`: union of arrival intervals, envelope of slews.
bool merge(PinTiming& acc, const PinTiming& t) {
  const PinTiming before = acc;
  acc.rise = acc.rise.hull(t.rise);
  acc.fall = acc.fall.hull(t.fall);
  if (!t.reached()) return false;
  if (!before.reached()) {
    acc.slew_min = t.slew_min;
    acc.slew_max = t.slew_max;
  } else {
    acc.slew_min = std::min(acc.slew_min, t.slew_min);
    acc.slew_max = std::max(acc.slew_max, t.slew_max);
  }
  const bool changed = !(before.rise == acc.rise) || !(before.fall == acc.fall) ||
                       before.slew_min != acc.slew_min || before.slew_max != acc.slew_max;
  return changed;
}

/// Delay/slew of one arc evaluated over an input interval; conservative:
/// earliest uses min slew, latest uses max slew.
struct EdgeOut {
  Interval arrival;
  double slew_min = 0.0;
  double slew_max = 0.0;
};

EdgeOut eval_edge(const lib::Table2D& delay_tbl, const lib::Table2D& slew_tbl,
                  const Interval& in_arrival, double in_slew_min, double in_slew_max,
                  double load) {
  EdgeOut out;
  if (in_arrival.is_empty()) return out;
  const double d_min = delay_tbl.lookup(in_slew_min, load);
  const double d_max = delay_tbl.lookup(in_slew_max, load);
  out.arrival = {in_arrival.lo + std::min(d_min, d_max),
                 in_arrival.hi + std::max(d_min, d_max)};
  const double s0 = slew_tbl.lookup(in_slew_min, load);
  const double s1 = slew_tbl.lookup(in_slew_max, load);
  out.slew_min = std::min(s0, s1);
  out.slew_max = std::max(s0, s1);
  return out;
}

}  // namespace

double Result::worst_slack() const noexcept {
  double w = 1e30;
  for (const auto& e : endpoints) w = std::min(w, e.slack());
  return endpoints.empty() ? 0.0 : w;
}

Result run(const net::Design& design, const para::Parasitics& para, const Options& opt) {
  if (para.net_count() != design.net_count()) {
    throw std::invalid_argument("sta::run: parasitics/net count mismatch");
  }

  Result res;
  res.pins.assign(design.pin_count(), PinTiming{});
  res.nets.assign(design.net_count(), NetTiming{});

  const WireSlabs wires = wire_slabs(design, para, opt);

  // Seed primary inputs.
  for (const PinId p : design.input_ports()) {
    PinTiming t;
    Interval arr = opt.default_input_arrival;
    const auto it = opt.input_arrivals.find(design.pin(p).port_name);
    if (it != opt.input_arrivals.end()) arr = it->second;
    t.rise = arr;
    t.fall = arr;
    t.slew_min = t.slew_max = design.port_drive(p).slew;
    res.pins[p.index()] = t;
  }

  res.order = design.topological_order();
  const std::vector<InstId>& order = res.order;
  std::vector<std::uint32_t> rank(order.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[order[r].index()] = static_cast<std::uint32_t>(r);
  }

  // Timing at a load pin: driving net's pin timing shifted by wire delay.
  auto load_pin_timing = [&](PinId load) -> PinTiming {
    const net::Pin& lp = design.pin(load);
    if (!lp.net.valid()) return {};
    const PinId driver = design.net(lp.net).driver;
    if (!driver.valid()) return {};
    PinTiming t = res.pins[driver.index()];
    const double wd = wires.wire_delay[load.index()];
    t.rise = t.rise.shifted(wd);
    t.fall = t.fall.shifted(wd);
    return t;
  };

  // Dirty marks by rank: `dirty` for the sweep in progress, `dirty_next`
  // for the one after it. Sweep 1 visits every instance, and runs even on
  // a design without any, so `passes` is at least 1. A sweep past
  // kMaxPasses only checks: if it changes nothing the fixpoint stands.
  std::vector<char> dirty(order.size(), 1);
  std::vector<char> dirty_next(order.size(), 0);
  bool any_dirty = true;
  int sweeps = 0;
  bool last_sweep_changed = false;
  std::size_t first_changed = 0;  // rank of the first instance the last sweep changed
  while (any_dirty && sweeps <= kMaxPasses) {
    ++sweeps;
    last_sweep_changed = false;
    any_dirty = false;
    for (std::size_t r = 0; r < order.size(); ++r) {
      if (!dirty[r]) continue;
      dirty[r] = 0;
      const InstId inst_id = order[r];
      const net::Instance& inst = design.instance(inst_id);
      const lib::Cell& cell = design.cell_of(inst_id);

      for (const auto& arc : cell.arcs) {
        const PinId in_pin = inst.pins[arc.from_pin];
        const PinId out_pin = inst.pins[arc.to_pin];
        const net::Pin& op = design.pin(out_pin);
        if (!op.net.valid()) continue;
        const double load = wires.load_cap[op.net.index()];
        const PinTiming in_t = load_pin_timing(in_pin);
        if (!in_t.reached()) continue;

        PinTiming out_t;
        auto add_edge = [&](bool out_rise, const Interval& in_arr) {
          const auto& dt = out_rise ? arc.delay_rise : arc.delay_fall;
          const auto& st = out_rise ? arc.slew_rise : arc.slew_fall;
          const EdgeOut e = eval_edge(dt, st, in_arr, in_t.slew_min, in_t.slew_max, load);
          if (e.arrival.is_empty()) return;
          PinTiming tmp;
          (out_rise ? tmp.rise : tmp.fall) = e.arrival;
          tmp.slew_min = e.slew_min;
          tmp.slew_max = e.slew_max;
          merge(out_t, tmp);
        };

        switch (arc.sense) {
          case lib::ArcSense::kPositiveUnate:
            add_edge(true, in_t.rise);
            add_edge(false, in_t.fall);
            break;
          case lib::ArcSense::kNegativeUnate:
            add_edge(true, in_t.fall);
            add_edge(false, in_t.rise);
            break;
          case lib::ArcSense::kNonUnate:
            add_edge(true, in_t.window());
            add_edge(false, in_t.window());
            break;
        }
        if (!out_t.reached() || !merge(res.pins[out_pin.index()], out_t)) continue;
        if (!last_sweep_changed) first_changed = r;
        last_sweep_changed = true;
        // Every instance with an arc from a pin on the changed net sees new
        // input timing: later ranks within this sweep, earlier ones (a
        // CK -> Q launch behind its own clock tree) in the next. A DFF or
        // latch D pin starts no arc, so its flop is not revisited.
        for (const PinId load : design.net(op.net).loads) {
          const net::Pin& lp = design.pin(load);
          if (lp.kind != net::PinKind::kInstance) continue;
          const auto& load_arcs = design.cell_of(lp.inst).arcs;
          if (std::none_of(load_arcs.begin(), load_arcs.end(),
                           [&](const lib::TimingArc& a) { return a.from_pin == lp.cell_pin; })) {
            continue;
          }
          const std::uint32_t q = rank[lp.inst.index()];
          if (q > r) {
            dirty[q] = 1;
          } else {
            dirty_next[q] = 1;
            any_dirty = true;
          }
        }
      }
    }
    dirty.swap(dirty_next);
  }
  if (sweeps > kMaxPasses && last_sweep_changed) {
    throw std::runtime_error(
        "sta::run: arrival windows did not converge in " + std::to_string(kMaxPasses) +
        " passes; instance '" + design.instance(order[first_changed]).name +
        "' still changes its outputs (a clock chain deeper than " +
        std::to_string(kMaxPasses) +
        " sequential stages, or a clock loop through sequential cells)");
  }
  // A full-pass fixpoint loop would run one more pass to see that nothing
  // changes, unless it had already run kMaxPasses; count it so `passes`
  // keeps that definition.
  res.passes = std::min(kMaxPasses, sweeps + (last_sweep_changed ? 1 : 0));

  // Net summaries.
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const net::Net& n = design.net(NetId{i});
    if (!n.driver.valid()) continue;
    const PinTiming& t = res.pins[n.driver.index()];
    res.nets[i].window = t.window();
    res.nets[i].slew_min = t.slew_min;
    res.nets[i].slew_max = t.slew_max;
  }

  // Clock arrivals at sequential clock pins.
  res.clock_arrivals.reserve(design.sequentials().size());
  for (const InstId s : design.sequentials()) {
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    Interval clk = Interval::empty();
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role == lib::PinRole::kClock ||
          cell.pins[pi].role == lib::PinRole::kEnable) {
        const PinTiming t = load_pin_timing(inst.pins[pi]);
        clk = clk.hull(t.window());
      }
    }
    res.clock_arrivals.push_back(clk);
  }

  // Endpoints: DFF/latch data pins (setup against the next clock edge) and
  // primary output ports (against the period).
  for (std::size_t si = 0; si < design.sequentials().size(); ++si) {
    const InstId s = design.sequentials()[si];
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      const PinTiming t = load_pin_timing(inst.pins[pi]);
      if (!t.reached()) continue;
      Endpoint e;
      e.pin = inst.pins[pi];
      const double clk_late = res.clock_arrivals[si].is_empty()
                                  ? 0.0
                                  : res.clock_arrivals[si].hi;
      e.required = clk_late + opt.clock_period - cell.setup;
      e.arrival = t.window().hi;
      res.endpoints.push_back(e);
    }
  }
  for (const PinId p : design.output_ports()) {
    const PinTiming t = load_pin_timing(p);
    if (!t.reached()) continue;
    Endpoint e;
    e.pin = p;
    e.required = opt.clock_period;
    e.arrival = t.window().hi;
    res.endpoints.push_back(e);
  }

  return res;
}

}  // namespace nw::sta
