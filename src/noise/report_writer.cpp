#include "noise/report_writer.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "report/table.hpp"

namespace nw::noise {

void write_report(std::ostream& os, const net::Design& design, const Options& opt,
                  const Result& result, const ReportOptions& ropt) {
  os << "=== noisewin report: design '" << design.name() << "' ===\n";
  os << "mode: " << to_string(opt.mode) << "   model: " << to_string(opt.model)
     << "   clock period: " << report::fmt_ps(opt.clock_period) << "\n";
  os << "nets: " << design.net_count() << "   endpoints checked: "
     << result.endpoints_checked << "   aggressor pairs: "
     << result.aggressors_considered << " (temporally filtered: "
     << result.aggressors_filtered_temporal << ")\n";
  os << "violations: " << result.violations.size()
     << "   noisy nets: " << result.noisy_nets << "\n\n";

  if (!result.violations.empty()) {
    // Violations worst-slack first.
    std::vector<const Violation*> sorted;
    sorted.reserve(result.violations.size());
    for (const auto& v : result.violations) sorted.push_back(&v);
    std::sort(sorted.begin(), sorted.end(), [](const Violation* a, const Violation* b) {
      return a->slack() < b->slack();
    });

    report::TextTable t(
        {"endpoint", "net", "peak", "width", "threshold", "slack", "sensitivity"});
    std::size_t shown = 0;
    for (const auto* v : sorted) {
      if (shown++ >= kMaxViolationRows) break;
      t.add_row({design.pin_name(v->endpoint), design.net(v->net).name,
                 report::fmt_mv(v->peak), report::fmt_ps(v->width),
                 report::fmt_mv(v->threshold), report::fmt_mv(v->slack()),
                 v->sensitivity == Interval::everything() ? "(always)"
                                                          : v->sensitivity.str()});
    }
    os << "-- violations (worst slack first";
    if (result.violations.size() > kMaxViolationRows) {
      os << ", showing " << kMaxViolationRows << " of " << result.violations.size();
    }
    os << ") --\n";
    t.print(os);
    os << "\n";

    // Origin of the worst violation: the nets a fix would target.
    const NoiseTrace origin = trace_origin(result, sorted.front()->net);
    if (!origin.path.empty()) {
      os << "worst violation origin: " << trace_string(design, origin) << "\n\n";
    }
  }

  // Worst nets by total peak.
  std::vector<std::size_t> order(result.nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.nets[a].total_peak > result.nets[b].total_peak;
  });
  report::TextTable worst({"net", "aggressors", "injected", "propagated", "total",
                           "width", "worst alignment"});
  std::size_t rows = 0;
  for (const auto i : order) {
    const NetNoise& nn = result.nets[i];
    if (nn.total_peak <= 0.0 || rows++ >= kMaxNoisyNetRows) break;
    worst.add_row({design.net(NetId{i}).name, std::to_string(nn.aggressor_count),
                   report::fmt_mv(nn.injected_peak), report::fmt_mv(nn.propagated_peak),
                   report::fmt_mv(nn.total_peak), report::fmt_ps(nn.width),
                   nn.worst_alignment == Interval::everything()
                       ? "(always)"
                       : nn.worst_alignment.str()});
  }
  os << "-- worst nets by combined peak --\n";
  worst.print(os);

  if (ropt.telemetry_footer) {
    os << "\n";
    write_stats(os, result.telemetry);
  }
}

void write_delay_impact(std::ostream& os, const net::Design& design,
                        const DelayImpactSummary& impact) {
  os << "\n-- crosstalk delay impact --\n";
  os << "affected nets: " << impact.affected_nets
     << "   total delta: " << report::fmt_ps(impact.total_delta)
     << "   max delta: " << report::fmt_ps(impact.max_delta) << "\n";
  std::vector<std::size_t> order(impact.nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return impact.nets[a].delta_delay > impact.nets[b].delta_delay;
  });
  report::TextTable t({"net", "aligned peak", "delta delay"});
  std::size_t rows = 0;
  for (const auto i : order) {
    const DelayImpact& di = impact.nets[i];
    if (di.delta_delay <= 0.0 || rows++ >= kMaxDelayImpactRows) break;
    t.add_row({design.net(NetId{i}).name, report::fmt_mv(di.peak_during_transition),
               report::fmt_ps(di.delta_delay)});
  }
  t.print(os);
}

namespace {

std::string interval_str(const Interval& iv) {
  if (iv == Interval::everything()) return "(always)";
  if (iv.is_empty()) return "(never)";
  return iv.str();
}

}  // namespace

bool write_explain(std::ostream& os, const net::Design& design, const Options& opt,
                   const Result& result, NetId net) {
  if (net.index() >= result.nets.size()) {
    throw std::invalid_argument("explain: bad net id");
  }
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < result.violations.size(); ++i) {
    if (result.violations[i].net == net) hits.push_back(i);
  }
  const std::string& name = design.net(net).name;
  if (hits.empty()) {
    os << "net '" << name << "': no violations (mode " << to_string(opt.mode)
       << ", combined peak " << report::fmt_mv(result.net(net).total_peak) << ")\n";
    return false;
  }
  os << "=== explain: net '" << name << "' — " << hits.size() << " violation"
     << (hits.size() == 1 ? "" : "s") << " (mode " << to_string(opt.mode) << ") ===\n";
  for (const std::size_t vi : hits) {
    const Violation& v = result.violations[vi];
    const Provenance& p = result.provenance.at(vi);
    os << "\nendpoint " << design.pin_name(v.endpoint) << ": peak "
       << report::fmt_mv(v.peak) << " / threshold " << report::fmt_mv(v.threshold)
       << " (slack " << report::fmt_mv(v.slack()) << "), width "
       << report::fmt_ps(v.width) << "\n";
    os << "  worst alignment: " << interval_str(p.alignment)
       << "   sensitivity: " << interval_str(v.sensitivity) << "\n";
    os << "  filtering stages: unfiltered " << report::fmt_mv(p.peak_unfiltered)
       << " -> switching-windows " << report::fmt_mv(p.peak_switching)
       << " -> noise-windows " << report::fmt_mv(p.peak_noise_window)
       << " -> in-sensitivity " << report::fmt_mv(p.peak_in_sensitivity)
       << "   culled by: " << to_string(p.culled_by) << "\n";
    report::TextTable shares({"rank", "source", "peak", "coupling", "overlap",
                              "verdict"});
    for (std::size_t si = 0; si < p.shares.size(); ++si) {
      const AggressorShare& s = p.shares[si];
      const std::string source = s.is_propagated()
                                     ? "via " + design.net(s.from_net).name
                                     : design.net(s.aggressor).name;
      shares.add_row({std::to_string(si + 1), source, report::fmt_mv(s.peak),
                      s.is_propagated() ? "-" : report::fmt_ff(s.coupling_cap),
                      interval_str(s.overlap), to_string(s.verdict)});
    }
    shares.print(os);
    if (p.path.size() > 1) {
      os << "  path:";
      for (std::size_t i = 0; i < p.path.size(); ++i) {
        if (i > 0) os << " <-";
        os << ' ' << design.net(p.path[i].net).name << " ("
           << report::fmt_mv(p.path[i].peak) << ")";
      }
      os << "\n";
    }
  }
  return true;
}

std::string explain_string(const net::Design& design, const Options& options,
                           const Result& result, NetId net) {
  std::ostringstream os;
  write_explain(os, design, options, result, net);
  return os.str();
}

std::string trace_string(const net::Design& design, const NoiseTrace& trace) {
  std::ostringstream os;
  for (std::size_t i = 0; i < trace.path.size(); ++i) {
    if (i > 0) os << " <- ";
    const ProvenanceStep& s = trace.path[i];
    os << design.net(s.net).name << " (" << report::fmt_mv(s.peak) << ")";
  }
  if (!trace.aggressors.empty()) {
    os << " [aggressors:";
    for (const NetId a : trace.aggressors) os << ' ' << design.net(a).name;
    os << "]";
  }
  return os.str();
}

}  // namespace nw::noise
