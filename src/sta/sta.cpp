#include "sta/sta.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>

#include "parasitics/reduce.hpp"

namespace nw::sta {

namespace {

/// The interconnect view of a run: the Elmore delay of every load of a net
/// (per PinId) and the load the net presents to its driver (per NetId).
/// Both are computed together on a net's first use, so an incremental run
/// pays only for the nets it reads.
class Wires {
 public:
  Wires(const net::Design& d, const para::Parasitics& para)
      : d_(d),
        para_(para),
        wire_delay_(d.pin_count(), 0.0),
        load_cap_(d.net_count(), 0.0),
        done_(d.net_count(), 0) {}

  /// Wire delay to `load` on `net`; 0 for a load off the RC tree.
  [[nodiscard]] double delay(PinId load, NetId net) {
    if (!done_[net.index()]) prepare(net);
    return wire_delay_[load.index()];
  }
  /// Ground + pin + coupling load of `net` [F].
  [[nodiscard]] double load(NetId net) {
    if (!done_[net.index()]) prepare(net);
    return load_cap_[net.index()];
  }
  /// Computes every net's entries now. A full run reads nearly all of
  /// them, and net order walks the parasitics sequentially (first-use
  /// order, following the levelization, measured slower on logic100k).
  void prepare_all() {
    for (std::size_t i = 0; i < done_.size(); ++i) {
      if (!done_[i]) prepare(NetId{i});
    }
  }

 private:
  void prepare(NetId id) {
    done_[id.index()] = 1;
    const net::Net& net = d_.net(id);
    const para::RcNet& rc = para_.net(id);
    // Per-node extra caps: attached pin loads plus coupling caps.
    extra_.assign(rc.node_count(), 0.0);
    load_node_.clear();
    for (const PinId load : net.loads) {
      const auto node = rc.node_of_pin(load);
      load_node_.push_back(node);
      const double cap = d_.pin_cap(load);
      if (node < rc.node_count()) {
        extra_[node] += cap;
      } else {
        extra_[0] += cap;  // unattached load: lump at the driver
      }
    }
    for (const auto ci : para_.couplings_of(id)) {
      const auto& cc = para_.coupling(ci);
      extra_[cc.node_on(id)] += cc.c;
    }

    std::vector<double> elmore;
    if (rc.res_count() > 0) elmore = para::elmore_delays(rc, extra_);
    for (std::size_t k = 0; k < net.loads.size(); ++k) {
      const bool attached = !elmore.empty() && load_node_[k] < rc.node_count();
      wire_delay_[net.loads[k].index()] = attached ? elmore[load_node_[k]] : 0.0;
    }

    double load_cap = rc.total_ground_cap();
    for (const double e : extra_) load_cap += e;
    load_cap_[id.index()] = load_cap;
  }

  const net::Design& d_;
  const para::Parasitics& para_;
  std::vector<double> wire_delay_;        // per PinId
  std::vector<double> load_cap_;          // per NetId
  std::vector<char> done_;                // per NetId: entries computed
  std::vector<double> extra_;             // per RC node of the net being prepared
  std::vector<std::uint32_t> load_node_;  // RC node of each of its loads
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(const Interval& a, const Interval& b) {
  return same_bits(a.lo, b.lo) && same_bits(a.hi, b.hi);
}
bool same_bits(const PinTiming& a, const PinTiming& b) {
  return same_bits(a.rise, b.rise) && same_bits(a.fall, b.fall) &&
         same_bits(a.slew_min, b.slew_min) && same_bits(a.slew_max, b.slew_max);
}
bool same_bits(const NetTiming& a, const NetTiming& b) {
  return same_bits(a.window, b.window) && same_bits(a.slew_min, b.slew_min) &&
         same_bits(a.slew_max, b.slew_max);
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

PinTiming port_seed(const net::Design& design, const Options& opt, PinId p) {
  PinTiming t;
  Interval arr{0.0, 0.0};
  const auto it = opt.input_arrivals.find(design.pin(p).port_name);
  if (it != opt.input_arrivals.end()) arr = it->second;
  t.rise = arr;
  t.fall = arr;
  t.slew_min = t.slew_max = design.port_drive(p).slew;
  return t;
}

/// Rank (position in `order`) of every instance.
std::vector<std::uint32_t> ranks_of(const std::vector<InstId>& order) {
  std::vector<std::uint32_t> rank(order.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[order[r].index()] = static_cast<std::uint32_t>(r);
  }
  return rank;
}

/// Timing at a load pin: `driver(pin)`'s timing of the net's driving pin,
/// shifted by the load's wire delay.
template <class Driver>
PinTiming at_load(const net::Design& design, Wires& w, PinId load, Driver&& driver) {
  const net::Pin& lp = design.pin(load);
  if (!lp.net.valid()) return {};
  const PinId drv = design.net(lp.net).driver;
  if (!drv.valid()) return {};
  PinTiming t = driver(drv);
  const double wd = w.delay(load, lp.net);
  t.rise = t.rise.shifted(wd);
  t.fall = t.fall.shifted(wd);
  return t;
}

/// Evaluates the arcs of one instance in cell order. `input(pin)` is the
/// timing at an arc's input pin; every reached result goes to
/// `emit(out_pin, out_net, timing)` before the next arc reads its input.
template <class Input, class Emit>
void evaluate_arcs(const net::Design& design, Wires& w, InstId inst_id, Input&& input,
                   Emit&& emit) {
  const net::Instance& inst = design.instance(inst_id);
  for (const auto& arc : design.cell_of(inst_id).arcs) {
    const PinId out_pin = inst.pins[arc.to_pin];
    const net::Pin& op = design.pin(out_pin);
    if (!op.net.valid()) continue;
    const double load = w.load(op.net);
    const PinTiming in_t = input(inst.pins[arc.from_pin]);
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
    if (out_t.reached()) emit(out_pin, op.net, out_t);
  }
}

/// Calls `visit(rank)` for every instance with an arc from a pin on `net`:
/// the instances that read its timing. A DFF or latch D pin starts no arc.
template <class Visit>
void for_each_reader(const net::Design& design, const std::vector<std::uint32_t>& rank,
                     NetId net, Visit&& visit) {
  for (const PinId load : design.net(net).loads) {
    const net::Pin& lp = design.pin(load);
    if (lp.kind != net::PinKind::kInstance) continue;
    const auto& arcs = design.cell_of(lp.inst).arcs;
    if (std::none_of(arcs.begin(), arcs.end(),
                     [&](const lib::TimingArc& a) { return a.from_pin == lp.cell_pin; })) {
      continue;
    }
    visit(rank[lp.inst.index()]);
  }
}

/// Where the worklist stands: sweeps run so far and what the last changed.
struct SweepState {
  int sweeps = 0;
  bool last_sweep_changed = false;
  std::size_t first_changed = 0;  ///< rank of the first instance the last sweep changed
};

/// The worklist (see the header comment) over res.pins, from the sweep
/// after `st.sweeps` on: `dirty` marks by rank the instances of that sweep,
/// which runs only if `any_dirty`. Sweep 1 records res.sweep2_seeds and
/// res.sweep1_reached; later sweeps record into res.sweep1 the value each
/// pin held before its first change after sweep 1. Sets res.passes, or
/// throws when the clock chain does not settle within kMaxPasses.
void sweep(const net::Design& design, Wires& w, const std::vector<std::uint32_t>& rank,
           std::vector<char> dirty, bool any_dirty, SweepState st, Result& res) {
  const std::vector<InstId>& order = res.order;
  std::vector<char> dirty_next(order.size(), 0);
  std::vector<char> recorded;  // per pin: sweep-1 value already in res.sweep1
  const auto input = [&](PinId load) {
    return at_load(design, w, load, [&](PinId drv) { return res.pins[drv.index()]; });
  };
  // A sweep past kMaxPasses only checks: if it changes nothing the
  // fixpoint stands.
  while (any_dirty && st.sweeps <= kMaxPasses) {
    ++st.sweeps;
    const bool first = st.sweeps == 1;
    if (!first && recorded.empty()) recorded.assign(res.pins.size(), 0);
    st.last_sweep_changed = false;
    any_dirty = false;
    for (std::size_t r = 0; r < order.size(); ++r) {
      if (!dirty[r]) continue;
      dirty[r] = 0;
      evaluate_arcs(design, w, order[r], input,
                    [&](PinId out, NetId net, const PinTiming& t) {
        PinTiming& acc = res.pins[out.index()];
        if (first) {
          const bool was_reached = acc.reached();
          if (!merge(acc, t)) return;
          if (!was_reached) ++res.sweep1_reached;
        } else {
          const PinTiming before = acc;
          if (!merge(acc, t)) return;
          if (!recorded[out.index()]) {
            recorded[out.index()] = 1;
            res.sweep1.push_back({out, before});
          }
        }
        if (!st.last_sweep_changed) st.first_changed = r;
        st.last_sweep_changed = true;
        // Readers of the changed net see new input timing: later ranks
        // within this sweep, earlier ones (a CK -> Q launch behind its own
        // clock tree) in the next.
        for_each_reader(design, rank, net, [&](std::uint32_t q) {
          if (q > r) {
            dirty[q] = 1;
            return;
          }
          if (first && !dirty_next[q]) res.sweep2_seeds.push_back(q);
          dirty_next[q] = 1;
          any_dirty = true;
        });
      });
    }
    dirty.swap(dirty_next);
  }
  std::sort(res.sweep2_seeds.begin(), res.sweep2_seeds.end());
  if (st.sweeps > kMaxPasses && st.last_sweep_changed) {
    throw std::runtime_error(
        "sta::run: arrival windows did not converge in " + std::to_string(kMaxPasses) +
        " passes; instance '" + design.instance(order[st.first_changed]).name +
        "' still changes its outputs (a clock chain deeper than " +
        std::to_string(kMaxPasses) +
        " sequential stages, or a clock loop through sequential cells)");
  }
  // A full-pass fixpoint loop would run one more pass to see that nothing
  // changes, unless it had already run kMaxPasses; count it so `passes`
  // keeps that definition.
  res.passes = std::min(kMaxPasses, st.sweeps + (st.last_sweep_changed ? 1 : 0));
}

/// res.nets[i] from the timing of the net's driving pin.
void summarize_net(const net::Design& design, Result& res, std::size_t i) {
  const net::Net& n = design.net(NetId{i});
  if (!n.driver.valid()) return;
  const PinTiming& t = res.pins[n.driver.index()];
  res.nets[i].window = t.window();
  res.nets[i].slew_min = t.slew_min;
  res.nets[i].slew_max = t.slew_max;
}

/// Clock arrivals at sequential clock pins, then the endpoints: DFF/latch
/// data pins (setup against the next clock edge) and primary output ports
/// (against the period). With a `base` (incremental runs), a pin whose net
/// is not `touched` keeps base's clock window or arrival and reads no wire.
void derive_endpoints(const net::Design& design, Wires& w, const Options& opt,
                      Result& res, const Result* base = nullptr,
                      const std::vector<char>* touched = nullptr) {
  const auto at = [&](PinId load) {
    return at_load(design, w, load, [&](PinId drv) { return res.pins[drv.index()]; });
  };
  const auto kept = [&](PinId p) {
    const NetId n = design.pin(p).net;
    return base != nullptr && (!n.valid() || !(*touched)[n.index()]);
  };
  res.clock_arrivals.clear();
  res.clock_arrivals.reserve(design.sequentials().size());
  for (std::size_t si = 0; si < design.sequentials().size(); ++si) {
    const InstId s = design.sequentials()[si];
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    const auto clock_pins = [&](auto&& visit) {
      for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
        if (cell.pins[pi].role == lib::PinRole::kClock ||
            cell.pins[pi].role == lib::PinRole::kEnable) {
          visit(inst.pins[pi]);
        }
      }
    };
    bool reuse = base != nullptr;
    clock_pins([&](PinId p) { reuse = reuse && kept(p); });
    Interval clk = Interval::empty();
    if (reuse) {
      clk = base->clock_arrivals[si];
    } else {
      clock_pins([&](PinId p) { clk = clk.hull(at(p).window()); });
    }
    res.clock_arrivals.push_back(clk);
  }

  // A kept pin is reached exactly when base listed it: walk base's
  // endpoints alongside (same order) and take its arrival.
  std::size_t cursor = 0;
  const auto endpoint = [&](PinId pin, double required) {
    const Endpoint* old = nullptr;
    if (base != nullptr && cursor < base->endpoints.size() &&
        base->endpoints[cursor].pin == pin) {
      old = &base->endpoints[cursor++];
    }
    Endpoint e;
    e.pin = pin;
    e.required = required;
    if (kept(pin)) {
      if (old == nullptr) return;
      e.arrival = old->arrival;
    } else {
      const PinTiming t = at(pin);
      if (!t.reached()) return;
      e.arrival = t.window().hi;
    }
    res.endpoints.push_back(e);
  };
  res.endpoints.clear();
  for (std::size_t si = 0; si < design.sequentials().size(); ++si) {
    const InstId s = design.sequentials()[si];
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      const double clk_late = res.clock_arrivals[si].is_empty()
                                  ? 0.0
                                  : res.clock_arrivals[si].hi;
      endpoint(inst.pins[pi], clk_late + opt.clock_period - cell.setup);
    }
  }
  for (const PinId p : design.output_ports()) endpoint(p, opt.clock_period);
}

}  // namespace

std::size_t memory_bytes(const Result& r) noexcept {
  std::size_t bytes = r.pins.capacity() * sizeof(PinTiming) +
                      r.nets.capacity() * sizeof(NetTiming) +
                      r.endpoints.capacity() * sizeof(Endpoint) +
                      r.clock_arrivals.capacity() * sizeof(Interval) +
                      r.order.capacity() * sizeof(InstId) +
                      r.sweep1.capacity() * sizeof(SweepOneValue) +
                      r.sweep2_seeds.capacity() * sizeof(std::uint32_t);
  return bytes;
}

Result run(const net::Design& design, const para::Parasitics& para, const Options& opt) {
  if (para.net_count() != design.net_count()) {
    throw std::invalid_argument("sta::run: parasitics/net count mismatch");
  }

  Result res;
  res.pins.assign(design.pin_count(), PinTiming{});
  res.nets.assign(design.net_count(), NetTiming{});

  Wires wires(design, para);
  wires.prepare_all();

  for (const PinId p : design.input_ports()) res.pins[p.index()] = port_seed(design, opt, p);

  res.order = design.topological_order();
  // Sweep 1 visits every instance, and runs even on a design without any,
  // so `passes` is at least 1.
  sweep(design, wires, ranks_of(res.order), std::vector<char>(res.order.size(), 1),
        /*any_dirty=*/true, SweepState{}, res);

  for (std::size_t i = 0; i < design.net_count(); ++i) summarize_net(design, res, i);
  derive_endpoints(design, wires, opt, res);
  return res;
}

Update run_incremental(const net::Design& design, const para::Parasitics& para,
                       const Options& opt, const Result& base,
                       std::span<const NetId> edited_nets) {
  if (para.net_count() != design.net_count()) {
    throw std::invalid_argument("sta::run_incremental: parasitics/net count mismatch");
  }
  if (base.pins.size() != design.pin_count() || base.nets.size() != design.net_count() ||
      base.order.size() != design.instance_count()) {
    throw std::invalid_argument(
        "sta::run_incremental: the base result does not match the design");
  }
  for (const NetId n : edited_nets) {
    if (n.index() >= design.net_count()) {
      throw std::invalid_argument(
          "sta::run_incremental: edited net id " + std::to_string(n.value()) +
          " outside the design (" + std::to_string(design.net_count()) + " nets)");
    }
  }

  Update up;
  Result& res = up.result;
  res.pins = base.pins;
  res.nets = base.nets;
  res.order = base.order;
  res.sweep1_reached = base.sweep1_reached;
  const std::vector<std::uint32_t> rank = ranks_of(res.order);

  Wires w(design, para);

  // Back to the state sweep 1 left; `moved` collects every pin whose final
  // value may differ from the base's.
  std::vector<PinId> moved;
  for (const SweepOneValue& v : base.sweep1) {
    res.pins[v.pin.index()] = v.timing;
    moved.push_back(v.pin);
  }

  // Instances to replay, by rank: every instance on an edited net (its
  // load, wire delays or cell changed) and every reader of a re-seeded
  // port. Their sweep-2 seed membership is rechecked too, as is that of an
  // earlier-ranked reader of a pin whose sweep-1 reach changes.
  std::vector<char> queued(res.order.size(), 0);
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> replay;
  std::vector<std::uint32_t> recheck;
  const auto enqueue = [&](std::uint32_t q) {
    if (queued[q]) return;
    queued[q] = 1;
    replay.push(q);
  };
  const auto touch = [&](PinId p) {
    const net::Pin& pin = design.pin(p);
    if (pin.kind != net::PinKind::kInstance) return;
    enqueue(rank[pin.inst.index()]);
    recheck.push_back(rank[pin.inst.index()]);
  };
  for (const NetId n : edited_nets) {
    const net::Net& net = design.net(n);
    if (net.driver.valid()) touch(net.driver);
    for (const PinId load : net.loads) touch(load);
  }
  for (const PinId p : design.input_ports()) {
    const PinTiming seed = port_seed(design, opt, p);
    if (same_bits(seed, res.pins[p.index()])) continue;
    res.pins[p.index()] = seed;
    moved.push_back(p);
    if (design.pin(p).net.valid()) for_each_reader(design, rank, design.pin(p).net, enqueue);
  }

  // Sweep-1 replay: a driver of higher rank still reads as unreached.
  std::vector<std::pair<PinId, PinTiming>> outputs;  // of the instance replayed, before
  std::ptrdiff_t reached_delta = 0;
  while (!replay.empty()) {
    const std::uint32_t r = replay.top();
    replay.pop();
    const InstId inst_id = res.order[r];
    const net::Instance& inst = design.instance(inst_id);
    const lib::Cell& cell = design.cell_of(inst_id);
    outputs.clear();
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kOutput) continue;
      PinTiming& t = res.pins[inst.pins[pi].index()];
      outputs.emplace_back(inst.pins[pi], t);
      t = PinTiming{};
    }
    evaluate_arcs(
        design, w, inst_id,
        [&](PinId load) {
          return at_load(design, w, load, [&](PinId drv) {
            const net::Pin& dp = design.pin(drv);
            const bool later =
                dp.kind == net::PinKind::kInstance && rank[dp.inst.index()] > r;
            return later ? PinTiming{} : res.pins[drv.index()];
          });
        },
        [&](PinId out, NetId, const PinTiming& t) { merge(res.pins[out.index()], t); });
    for (const auto& [out, before] : outputs) {
      const PinTiming& now = res.pins[out.index()];
      if (same_bits(now, before)) continue;
      moved.push_back(out);
      const bool reach_changed = now.reached() != before.reached();
      if (reach_changed) reached_delta += now.reached() ? 1 : -1;
      const NetId net = design.pin(out).net;
      if (!net.valid()) continue;
      for_each_reader(design, rank, net, [&](std::uint32_t q) {
        if (q > r) {
          enqueue(q);
        } else if (reach_changed) {
          recheck.push_back(q);
        }
      });
    }
  }
  res.sweep1_reached = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(res.sweep1_reached) + reached_delta);

  // Sweep-2 seeds: an instance reading, through an arc, a pin of its own or
  // a later rank that sweep 1 reached.
  std::vector<char> dirty(res.order.size(), 0);
  for (const std::uint32_t q : base.sweep2_seeds) dirty[q] = 1;
  for (const std::uint32_t q : recheck) {
    const net::Instance& inst = design.instance(res.order[q]);
    dirty[q] = 0;
    for (const auto& arc : design.cell_of(res.order[q]).arcs) {
      const net::Pin& in = design.pin(inst.pins[arc.from_pin]);
      if (!in.net.valid()) continue;
      const PinId drv = design.net(in.net).driver;
      if (!drv.valid()) continue;
      const net::Pin& dp = design.pin(drv);
      if (dp.kind == net::PinKind::kInstance && rank[dp.inst.index()] >= q &&
          res.pins[drv.index()].reached()) {
        dirty[q] = 1;
        break;
      }
    }
  }
  for (std::size_t q = 0; q < dirty.size(); ++q) {
    if (dirty[q]) res.sweep2_seeds.push_back(static_cast<std::uint32_t>(q));
  }
  SweepState st;
  st.sweeps = 1;
  st.last_sweep_changed = res.sweep1_reached > 0;
  const bool any_seed = !res.sweep2_seeds.empty();
  sweep(design, w, rank, std::move(dirty), any_seed, st, res);
  for (const SweepOneValue& v : res.sweep1) moved.push_back(v.pin);

  // Net summaries of the drivers that may have moved; the changed set.
  std::vector<NetId> nets;
  for (const PinId p : moved) {
    const NetId n = design.pin(p).net;
    if (n.valid() && design.net(n).driver == p) nets.push_back(n);
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  // Endpoints re-read only nets whose driver moved or wire changed.
  std::vector<char> touched(design.net_count(), 0);
  for (const NetId n : edited_nets) touched[n.index()] = 1;
  for (const NetId n : nets) {
    touched[n.index()] = 1;
    summarize_net(design, res, n.index());
    if (!same_bits(res.nets[n.index()], base.nets[n.index()])) {
      up.changed_nets.push_back(n);
    }
  }
  derive_endpoints(design, w, opt, res, &base, &touched);
  return up;
}

}  // namespace nw::sta
