#include "noise/kernels.hpp"

#include <algorithm>
#include <utility>

#include "util/executor.hpp"

namespace nw::noise {

Combined combine_flat(std::span<const Contribution> contributions, AnalysisMode mode,
                      const Interval& restrict_to, const Constraints& constraints,
                      CombineView view, CombineScratch& s) {
  Combined out;
  const bool injected_only = view == CombineView::kInjectedOnly;
  if (mode == AnalysisMode::kNoFiltering && constraints.empty()) {
    // Everything coincides, always. Summation in (compacted) index order.
    std::size_t j = 0;
    for (const auto& c : contributions) {
      if (injected_only && c.is_propagated()) continue;
      out.peak += c.peak;
      out.width = std::max(out.width, c.width);
      out.active.push_back(j++);
    }
    out.alignment = Interval::everything();
    return out;
  }

  // Gather the view's member intervals into flat spans in (item, member)
  // order; the event sort breaks ties by that order, which fixes the
  // summation order.
  s.lo.clear();
  s.hi.clear();
  s.item.clear();
  s.weight.clear();
  s.width.clear();
  s.group.clear();
  const bool grouped = !constraints.empty();
  for (const auto& c : contributions) {
    if (injected_only && c.is_propagated()) continue;
    const std::size_t j = s.weight.size();
    s.weight.push_back(c.peak);
    s.width.push_back(c.width);
    if (grouped) {
      s.group.push_back(c.aggressor.valid() ? constraints.group_of(c.aggressor) : -1);
    }
    if (mode == AnalysisMode::kNoFiltering ||
        (view == CombineView::kPropagatedOpen && c.is_propagated())) {
      // No-filtering mode ignores windows but still honours logic
      // constraints; the propagated-open view widens fanin noise only.
      const Interval ev = Interval::everything();
      s.lo.push_back(ev.lo);
      s.hi.push_back(ev.hi);
      s.item.push_back(j);
    } else {
      for (const Interval& iv : c.window.intervals()) {
        s.lo.push_back(iv.lo);
        s.hi.push_back(iv.hi);
        s.item.push_back(j);
      }
    }
  }

  // Restrict in place. When restrict_to is `everything` this is the
  // identity (members already lie inside ±1e30); otherwise it clips each
  // member exactly like IntervalSet::intersect(Interval) and the event
  // builder below drops the emptied slots the way intersect() erases them.
  kernels::clip(s.lo, s.hi, restrict_to);

  s.events.clear();
  for (std::size_t k = 0; k < s.lo.size(); ++k) {
    if (s.lo[k] > s.hi[k]) continue;
    s.events.push_back({s.lo[k], true, s.item[k]});
    s.events.push_back({s.hi[k], false, s.item[k]});
  }
  const ScanResult scan =
      grouped ? scan_events_max_overlap_grouped(s.events, s.weight, s.group)
              : scan_events_max_overlap(s.events, s.weight);
  out.peak = scan.best_sum;
  out.alignment = scan.best_interval;
  out.active = scan.active;
  for (const auto i : scan.active) out.width = std::max(out.width, s.width[i]);
  return out;
}

namespace kernels {

void clip(std::span<double> lo, std::span<double> hi, const Interval& r) {
  const double rlo = r.lo;
  const double rhi = r.hi;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    lo[i] = std::max(lo[i], rlo);
    hi[i] = std::min(hi[i], rhi);
  }
}

void extend_right(std::span<const double> hi, std::span<const double> delay,
                  std::span<const double> width, std::span<double> out) {
  for (std::size_t i = 0; i < hi.size(); ++i) {
    const double after = delay[i] + width[i];
    out[i] = hi[i] + after;
  }
}

IntervalSet union_flat(std::vector<Interval>& members) {
  IntervalSet out;
  std::erase_if(members, [](const Interval& iv) { return iv.is_empty(); });
  if (members.empty()) return out;
  std::sort(members.begin(), members.end(), [](const Interval& a, const Interval& b) {
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.hi < b.hi;
  });
  // Sweep-merge: a member touching or overlapping the current run extends
  // it (hi = max — pure selection, as add()'s hull is); a gap starts a new
  // run. The runs are the canonical disjoint, gap-separated list add()
  // converges to regardless of insertion order.
  Interval cur = members.front();
  for (std::size_t i = 1; i < members.size(); ++i) {
    const Interval& m = members[i];
    if (m.lo <= cur.hi) {
      cur.hi = std::max(cur.hi, m.hi);
    } else {
      out.add(cur);
      cur = m;
    }
  }
  out.add(cur);
  return out;
}

}  // namespace kernels

namespace {
// Pack work granularity: scenario_for is the dominant per-pair cost, the
// same weight class as analytic estimation (kEstimateChunk = 8).
constexpr std::size_t kPackChunk = 8;
}  // namespace

KernelBuffers KernelBuffers::build(const net::Design& design,
                                   const AnalysisContext& ctx) {
  KernelBuffers kb;
  kb.vdd = ctx.vdd;
  const std::size_t n = ctx.aggressors.size();
  const std::size_t pairs = ctx.aggressor_pair_count();

  kb.agg_offsets.reserve(n + 1);
  kb.agg_net.reserve(pairs);
  kb.agg_offsets.push_back(0);
  for (const auto& row : ctx.aggressors) {
    for (const AggressorEdge& e : row) kb.agg_net.push_back(e.net);
    kb.agg_offsets.push_back(static_cast<std::uint32_t>(kb.agg_net.size()));
  }
  kb.pair_slew.assign(pairs, 0.0);

  kb.switch_lo.resize(n);
  kb.switch_hi.resize(n);

  std::size_t insts = 0;
  for (const auto& level : ctx.levels) insts += level.size();
  kb.level_offsets.reserve(ctx.levels.size() + 1);
  kb.level_offsets.push_back(0);
  kb.slab_cell.reserve(insts);
  kb.slab_seq.reserve(insts);
  kb.in_offsets.reserve(insts + 1);
  kb.out_offsets.reserve(insts + 1);
  kb.in_offsets.push_back(0);
  kb.out_offsets.push_back(0);
  for (const auto& level : ctx.levels) {
    for (const InstId inst_id : level) {
      const net::Instance& inst = design.instance(inst_id);
      const lib::Cell& cell = design.cell_of(inst_id);
      kb.slab_cell.push_back(&cell);
      kb.slab_seq.push_back(cell.is_sequential() ? 1 : 0);
      // Valid nets in pin order (max-selection tie-breaking depends on it).
      for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
        const net::Pin& p = design.pin(inst.pins[pi]);
        if (!p.net.valid()) continue;
        if (cell.pins[pi].dir == lib::PinDir::kInput) {
          kb.in_net.push_back(p.net);
        } else if (cell.pins[pi].dir == lib::PinDir::kOutput) {
          kb.out_net.push_back(p.net);
        }
      }
      kb.in_offsets.push_back(static_cast<std::uint32_t>(kb.in_net.size()));
      kb.out_offsets.push_back(static_cast<std::uint32_t>(kb.out_net.size()));
    }
    kb.level_offsets.push_back(static_cast<std::uint32_t>(kb.slab_cell.size()));
  }
  return kb;
}

void KernelBuffers::set_switch_windows(std::span<const Interval> windows) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    switch_lo[i] = windows[i].lo;
    switch_hi[i] = windows[i].hi;
  }
}

void KernelBuffers::pack_scenarios(const net::Design& design,
                                   const para::Parasitics& para,
                                   const sta::Result& sta, const Options& opt,
                                   const std::vector<char>* dirty,
                                   util::Executor& exec) {
  const std::size_t n = agg_offsets.empty() ? 0 : agg_offsets.size() - 1;
  const bool analytic =
      opt.model != GlitchModel::kReducedMna && opt.model != GlitchModel::kMnaExact;
  if (analytic && sc_r_hold.size() != agg_net.size()) {
    sc_r_hold.assign(agg_net.size(), 0.0);
    sc_c_ground.assign(agg_net.size(), 0.0);
    sc_c_couple.assign(agg_net.size(), 0.0);
    sc_slew.assign(agg_net.size(), 0.0);
  }
  exec.parallel_for("pack-scenarios", n, kPackChunk,
                    [&](std::size_t begin, std::size_t end) {
    for (std::size_t vi = begin; vi < end; ++vi) {
      if (dirty != nullptr && !(*dirty)[vi]) continue;
      for (std::uint32_t k = agg_offsets[vi]; k < agg_offsets[vi + 1]; ++k) {
        const NetId agg = agg_net[k];
        // The aggressor slew: STA's fastest transition, else the default,
        // floored at 1 ps (comparison + select + max: no arithmetic).
        const sta::NetTiming& at = sta.nets[agg.index()];
        double slew = at.slew_min > 0.0 ? at.slew_min : opt.default_slew;
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

}  // namespace nw::noise
