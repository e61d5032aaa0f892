#include "noise/context.hpp"

#include <algorithm>
#include <stdexcept>

#include "noise/analyzer.hpp"
#include "util/executor.hpp"

namespace nw::noise {

namespace {
// Pack work granularity: scenario_for is the dominant per-pair cost, the
// same weight class as analytic estimation (kEstimateChunk = 8).
constexpr std::size_t kPackChunk = 8;
}  // namespace

AnalysisContext AnalysisContext::build(const net::Design& design,
                                       const para::Parasitics& para,
                                       const sta::Result& sta_result,
                                       const Options& opt) {
  if (sta_result.nets.size() != design.net_count() ||
      sta_result.order.size() != design.instance_count()) {
    throw std::invalid_argument("noise::analyze: STA result does not match design");
  }
  AnalysisContext ctx;
  ctx.vdd = design.library().vdd();
  const std::size_t n = design.net_count();

  // Coupling-graph adjacency, written straight into the CSR. Per victim the
  // caps to each aggressor accumulate in couplings_of() order into a dense
  // scratch row; the touched aggressors are then visited in id order,
  // filtered against the threshold, and their scratch slots cleared.
  std::vector<double> cap_sum(n, 0.0);
  std::vector<char> seen(n, 0);
  std::vector<NetId::value_type> touched;
  ctx.agg_offsets.reserve(n + 1);
  ctx.agg_offsets.push_back(0);
  for (std::size_t vi = 0; vi < n; ++vi) {
    const NetId victim{vi};
    touched.clear();
    for (const auto ci : para.couplings_of(victim)) {
      const auto& cc = para.coupling(ci);
      const NetId other = cc.other_net(victim);
      if (!seen[other.index()]) {
        seen[other.index()] = 1;
        touched.push_back(other.value());
      }
      cap_sum[other.index()] += cc.c;
    }
    std::sort(touched.begin(), touched.end());
    for (const auto agg : touched) {
      const NetId a{agg};
      if (cap_sum[a.index()] < kMinCouplingCap) {
        ++ctx.pairs_filtered_cap;
      } else {
        ctx.agg_net.push_back(a);
        ctx.agg_cap.push_back(cap_sum[a.index()]);
      }
      cap_sum[a.index()] = 0.0;
      seen[a.index()] = 0;
    }
    ctx.agg_offsets.push_back(static_cast<std::uint32_t>(ctx.agg_net.size()));
  }

  // Per-net driver load (for gate-delay lookups during propagation).
  ctx.load_cap.resize(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const NetId id{i};
    double cap = para.total_cap(id);
    for (const PinId load : design.net(id).loads) cap += design.pin_cap(load);
    ctx.load_cap[i] = cap;
  }

  ctx.switch_lo.resize(n);
  ctx.switch_hi.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ctx.switch_lo[i] = sta_result.nets[i].window.lo;
    ctx.switch_hi[i] = sta_result.nets[i].window.hi;
  }

  for (std::size_t i = 0; i < n; ++i) {
    const net::Net& nn = design.net(NetId{i});
    if (nn.driver.valid() && design.pin(nn.driver).kind == net::PinKind::kInputPort) {
      ctx.port_nets.push_back(NetId{i});
    }
  }

  // Levelized schedule from STA's topological order (one Kahn walk per
  // analysis). net_level is 0 for port-driven, sequential-driven, and
  // undriven nets; a combinational instance sits one level above its
  // deepest input net.
  const std::vector<InstId>& topo = sta_result.order;
  std::vector<std::size_t> net_level(n, 0);
  std::vector<std::size_t> inst_level(design.instance_count(), 0);
  std::size_t max_level = 0;
  for (const InstId inst_id : topo) {
    const net::Instance& inst = design.instance(inst_id);
    const lib::Cell& cell = design.cell_of(inst_id);
    if (cell.is_sequential()) continue;  // level 0
    std::size_t lvl = 0;
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kInput) continue;
      const net::Pin& ip = design.pin(inst.pins[pi]);
      if (ip.net.valid()) lvl = std::max(lvl, net_level[ip.net.index()]);
    }
    lvl += 1;
    inst_level[inst_id.index()] = lvl;
    max_level = std::max(max_level, lvl);
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kOutput) continue;
      const net::Pin& op = design.pin(inst.pins[pi]);
      if (op.net.valid()) net_level[op.net.index()] = lvl;
    }
  }
  // Counting sort by level: topological order within each level.
  ctx.level_offsets.assign(max_level + 2, 0);
  for (const InstId inst_id : topo) ++ctx.level_offsets[inst_level[inst_id.index()] + 1];
  for (std::size_t li = 0; li <= max_level; ++li) {
    ctx.level_offsets[li + 1] += ctx.level_offsets[li];
  }
  std::vector<InstId> order(topo.size());
  std::vector<std::uint32_t> cursor(ctx.level_offsets.begin(),
                                    ctx.level_offsets.end() - 1);
  for (const InstId inst_id : topo) order[cursor[inst_level[inst_id.index()]]++] = inst_id;

  ctx.slab_cell.reserve(order.size());
  ctx.slab_seq.reserve(order.size());
  ctx.in_offsets.reserve(order.size() + 1);
  ctx.out_offsets.reserve(order.size() + 1);
  ctx.in_offsets.push_back(0);
  ctx.out_offsets.push_back(0);
  for (const InstId inst_id : order) {
    const net::Instance& inst = design.instance(inst_id);
    const lib::Cell& cell = design.cell_of(inst_id);
    ctx.slab_cell.push_back(&cell);
    ctx.slab_seq.push_back(cell.is_sequential() ? 1 : 0);
    // Valid nets in pin order (max-selection tie-breaking depends on it).
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      const net::Pin& p = design.pin(inst.pins[pi]);
      if (!p.net.valid()) continue;
      if (cell.pins[pi].dir == lib::PinDir::kInput) {
        ctx.in_net.push_back(p.net);
      } else if (cell.pins[pi].dir == lib::PinDir::kOutput) {
        ctx.out_net.push_back(p.net);
      }
    }
    ctx.in_offsets.push_back(static_cast<std::uint32_t>(ctx.in_net.size()));
    ctx.out_offsets.push_back(static_cast<std::uint32_t>(ctx.out_net.size()));
  }

  // Sequential endpoints with precomputed sensitivity windows.
  for (std::size_t si = 0; si < design.sequentials().size(); ++si) {
    const InstId s = design.sequentials()[si];
    const net::Instance& inst = design.instance(s);
    const lib::Cell& cell = design.cell_of(s);
    const Interval clk =
        si < sta_result.clock_arrivals.size() && !sta_result.clock_arrivals[si].is_empty()
            ? sta_result.clock_arrivals[si]
            : Interval{0.0, 0.0};
    // Edge-triggered flops sample only around the next capture edge. A
    // level-sensitive latch is vulnerable throughout its transparent
    // phase — anything arriving while the enable is open flows through
    // and is held at the closing edge.
    Interval sens;
    if (cell.kind == lib::CellKind::kLatch) {
      sens = Interval{clk.lo - cell.setup,
                      clk.hi + kLatchDuty * opt.clock_period + cell.hold};
    } else {
      sens = Interval{clk.lo + opt.clock_period - cell.setup,
                      clk.hi + opt.clock_period + cell.hold};
    }
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].role != lib::PinRole::kData) continue;
      const net::Pin& dp = design.pin(inst.pins[pi]);
      if (!dp.net.valid()) continue;
      ctx.endpoints.push_back(EndpointRef{s, inst.pins[pi], dp.net, sens});
    }
  }
  return ctx;
}

void AnalysisContext::pack_scenarios(const net::Design& design,
                                     const para::Parasitics& para,
                                     const sta::Result& sta, const Options& opt,
                                     const std::vector<char>* dirty,
                                     util::Executor& exec) {
  const std::size_t pairs = agg_net.size();
  const bool analytic =
      opt.model != GlitchModel::kReducedMna && opt.model != GlitchModel::kMnaExact;
  pair_slew.assign(pairs, 0.0);
  if (analytic) {
    sc_r_hold.assign(pairs, 0.0);
    sc_c_ground.assign(pairs, 0.0);
    sc_c_couple.assign(pairs, 0.0);
    sc_slew.assign(pairs, 0.0);
  }
  exec.parallel_for("pack-scenarios", net_count(), kPackChunk,
                    [&](std::size_t begin, std::size_t end) {
    for (std::size_t vi = begin; vi < end; ++vi) {
      if (dirty != nullptr && !(*dirty)[vi]) continue;
      for (std::uint32_t k = agg_offsets[vi]; k < agg_offsets[vi + 1]; ++k) {
        const NetId agg = agg_net[k];
        // The aggressor slew: STA's fastest transition, else the default,
        // floored at 1 ps (comparison + select + max: no arithmetic).
        const sta::NetTiming& at = sta.nets[agg.index()];
        double slew = at.slew_min > 0.0 ? at.slew_min : kDefaultSlew;
        slew = std::max(slew, 1e-12);
        pair_slew[k] = slew;
        if (analytic) {
          // scenario_for() itself, per pair — its mixed-order
          // c_other_coupling accumulation is not decomposable, so it is
          // called rather than re-derived.
          const CouplingScenario s =
              scenario_for(design, para, NetId{vi}, agg, slew, vdd);
          sc_r_hold[k] = s.r_hold;
          sc_c_ground[k] = s.c_ground;
          sc_c_couple[k] = s.c_couple;
          sc_slew[k] = s.slew;
        }
      }
    }
  });
  packed_ = true;
}

std::vector<NetId> AnalysisContext::dirty_closure(const para::Parasitics& para,
                                                  std::span<const NetId> changed) const {
  const std::size_t n = net_count();
  std::vector<char> dirty(n, 0);
  for (const NetId net : changed) {
    if (net.index() >= n) {
      throw std::invalid_argument(
          "dirty_closure: changed net id " + std::to_string(net.value()) +
          " outside the design (" + std::to_string(n) + " nets)");
    }
    dirty[net.index()] = 1;
    for (const auto ci : para.couplings_of(net)) {
      dirty[para.coupling(ci).other_net(net).index()] = 1;
    }
  }
  std::vector<NetId> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (dirty[i]) out.push_back(NetId{i});
  }
  return out;
}

}  // namespace nw::noise
