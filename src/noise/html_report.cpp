#include "noise/html_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/memtrack.hpp"
#include "obs/resource.hpp"
#include "report/svg.hpp"
#include "report/table.hpp"

namespace nw::noise {

namespace {

using report::html_escape;

constexpr std::size_t kTimelineRows = 12;  ///< timeline rows (worst slack first)
constexpr std::size_t kParetoBars = 12;    ///< Pareto bars
constexpr std::size_t kSlackBins = 24;     ///< slack histogram resolution

/// everything() bounds are sentinels (±1e30), not data — skip them when
/// sizing a time axis and let the renderer clamp the span instead.
bool finite_time(double t) { return std::abs(t) < 1e29; }

void meta_row(std::ostream& os, const char* key, const std::string& value) {
  os << "  <tr><th>" << key << "</th><td>" << html_escape(value) << "</td></tr>\n";
}

void summary_tile(std::ostream& os, const std::string& value, const char* label) {
  os << "  <div class=\"tile\"><div class=\"num\">" << html_escape(value)
     << "</div><div class=\"cap\">" << label << "</div></div>\n";
}

/// Violation indices sorted worst slack first (ties: violation order).
std::vector<std::size_t> worst_first(const Result& r) {
  std::vector<std::size_t> order(r.violations.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return r.violations[a].slack() < r.violations[b].slack();
  });
  return order;
}

void write_timelines(std::ostream& os, const net::Design& design, const Result& r,
                     const Options& opt, const std::vector<std::size_t>& order) {
  std::vector<report::TimelineRow> rows;
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  const auto note = [&](double t) {
    if (!finite_time(t)) return;
    lo = any ? std::min(lo, t) : t;
    hi = any ? std::max(hi, t) : t;
    any = true;
  };
  for (std::size_t k = 0; k < order.size() && k < kTimelineRows; ++k) {
    const Violation& v = r.violations[order[k]];
    const Provenance& p = r.provenance[order[k]];
    report::TimelineRow row;
    row.label = design.pin_name(v.endpoint) + " (" + design.net(v.net).name + ")";
    for (const Interval& iv : r.net(v.net).window.intervals()) {
      row.spans.push_back({iv.lo, iv.hi, "win"});
      note(iv.lo);
      note(iv.hi);
    }
    if (!v.sensitivity.is_empty()) {
      row.spans.push_back({v.sensitivity.lo, v.sensitivity.hi, "sens"});
      note(v.sensitivity.lo);
      note(v.sensitivity.hi);
    }
    if (!p.alignment.is_empty()) {
      row.spans.push_back({p.alignment.lo, p.alignment.hi, "align"});
      note(p.alignment.lo);
      note(p.alignment.hi);
    }
    rows.push_back(std::move(row));
  }
  if (!any) {
    // All spans unbounded (kNoFiltering) or no violations: show one clock
    // period so clamped always-spans still render.
    lo = 0.0;
    hi = opt.clock_period > 0.0 ? opt.clock_period : 1e-9;
  }
  if (!(hi > lo)) hi = lo + 1e-12;
  os << "<section id=\"timelines\">\n<h2>Noise windows vs sensitivity windows"
     << " (top " << rows.size() << " violations)</h2>\n"
     << "<p class=\"legend\"><span class=\"sw win\"></span> noise window "
     << "<span class=\"sw sens\"></span> sensitivity window "
     << "<span class=\"sw align\"></span> worst alignment</p>\n";
  if (rows.empty()) {
    os << "<p>No violations.</p>\n";
  } else {
    report::ChartGeom geom;
    geom.label_width = 240.0;
    report::write_timeline(os, rows, lo, hi, geom, 1e9, "ns");
  }
  os << "</section>\n";
}

void write_pareto(std::ostream& os, const net::Design& design, const Result& r) {
  // Total in-worst injected noise per aggressor net across every violation
  // (map keyed by net id => deterministic iteration order).
  std::map<NetId::value_type, double> totals;
  for (const Provenance& p : r.provenance) {
    for (const AggressorShare& s : p.shares) {
      if (s.verdict != WindowVerdict::kInWorst || s.is_propagated()) continue;
      totals[s.aggressor.value()] += s.peak;
    }
  }
  std::vector<std::pair<NetId::value_type, double>> ranked(totals.begin(),
                                                           totals.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  os << "<section id=\"pareto\">\n<h2>Aggressor Pareto (in-worst noise summed over "
     << "violations)</h2>\n";
  if (ranked.empty()) {
    os << "<p>No aggressor shares (no violations, or all noise is propagated)."
       << "</p>\n";
  } else {
    std::vector<report::Bar> bars;
    for (std::size_t i = 0; i < ranked.size() && i < kParetoBars; ++i) {
      report::Bar b;
      b.label = design.net(NetId{ranked[i].first}).name;
      b.value = ranked[i].second;
      b.value_text = report::fmt_mv(ranked[i].second);
      bars.push_back(std::move(b));
    }
    report::write_bar_chart(os, bars, report::ChartGeom{}, /*cumulative_line=*/true);
    if (ranked.size() > kParetoBars) {
      os << "<p>" << (ranked.size() - kParetoBars) << " weaker aggressors not shown.</p>\n";
    }
  }
  os << "</section>\n";
}

void write_slack_hist(std::ostream& os, const Result& r) {
  os << "<section id=\"slack\">\n<h2>Endpoint noise-slack distribution</h2>\n";
  if (r.endpoint_slacks.empty()) {
    os << "<p>No endpoints checked.</p>\n</section>\n";
    return;
  }
  double lo = r.endpoint_slacks.front();
  double hi = lo;
  for (const double s : r.endpoint_slacks) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  if (!(hi > lo)) hi = lo + 1e-6;
  std::vector<report::HistogramBin> hist(kSlackBins);
  const double step = (hi - lo) / static_cast<double>(kSlackBins);
  for (std::size_t i = 0; i < kSlackBins; ++i) {
    hist[i].lo = lo + step * static_cast<double>(i);
    hist[i].hi = hist[i].lo + step;
    hist[i].cls = hist[i].hi <= 0.0 ? "binbad" : "bin";
  }
  for (const double s : r.endpoint_slacks) {
    auto idx = static_cast<std::size_t>((s - lo) / step);
    if (idx >= kSlackBins) idx = kSlackBins - 1;
    ++hist[idx].count;
  }
  os << "<p class=\"legend\"><span class=\"sw binbad\"></span> violating "
     << "(slack &lt; 0) <span class=\"sw bin\"></span> passing</p>\n";
  report::write_histogram(os, hist, report::ChartGeom{}, 1e3, "mV");
  os << "</section>\n";
}

std::string fmt_ms(double seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << seconds * 1e3;
  return os.str();
}

void write_executor(std::ostream& os, const Result& r) {
  const util::UtilizationSnapshot& ex = r.executor;
  os << "<section id=\"executor\">\n<h2>Executor utilization</h2>\n";
  if (!ex.enabled || ex.regions.empty()) {
    os << "<p>No executor utilization recorded (serial run or no parallel "
       << "regions).</p>\n</section>\n";
    return;
  }
  os << "<p class=\"legend\">threads " << ex.threads << ", parallel wall "
     << fmt_ms(ex.wall_s) << " ms. Utilization = busy / (busy + idle) inside "
     << "parallel regions; imbalance 1.0 = perfectly balanced.</p>\n";

  os << "<table>\n<tr><th>worker</th><th>busy ms</th><th>idle ms</th>"
     << "<th>chunks</th><th>utilization</th></tr>\n";
  for (const util::WorkerStats& w : ex.workers) {
    const double denom = w.busy_s + w.idle_s;
    const double util = denom > 0.0 ? w.busy_s / denom : 0.0;
    const int pct = static_cast<int>(util * 100.0 + 0.5);
    os << "<tr><td>" << w.worker << "</td><td>" << fmt_ms(w.busy_s) << "</td><td>"
       << fmt_ms(w.idle_s) << "</td><td>" << w.chunks
       << "</td><td><div class=\"ubar\"><div class=\"ufill\" style=\"width:" << pct
       << "%\"></div></div> " << pct << "%</td></tr>\n";
  }
  os << "</table>\n";

  os << "<h2>Parallel regions</h2>\n<table>\n<tr><th>region</th><th>calls</th>"
     << "<th>chunks</th><th>items</th><th>wall ms</th><th>busy ms</th>"
     << "<th>wait ms</th><th>imbalance</th></tr>\n";
  for (const util::RegionStats& reg : ex.regions) {
    std::ostringstream imb;
    imb.setf(std::ios::fixed);
    imb.precision(2);
    imb << reg.imbalance(ex.threads);
    os << "<tr><td>" << html_escape(reg.label) << "</td><td>" << reg.invocations
       << "</td><td>" << reg.chunks << "</td><td>" << reg.items << "</td><td>"
       << fmt_ms(reg.wall_s) << "</td><td>" << fmt_ms(reg.busy_s) << "</td><td>"
       << fmt_ms(reg.wait_s) << "</td><td>" << imb.str() << "</td></tr>\n";
  }
  os << "</table>\n";

  if (!r.attribution.top_levels.empty() || !r.attribution.top_nets.empty()) {
    os << "<h2>Work attribution</h2>\n";
    if (!r.attribution.top_levels.empty()) {
      os << "<table>\n<tr><th>heaviest level</th><th>instances</th>"
         << "<th>wall ms</th></tr>\n";
      for (const WorkAttribution::LevelCost& l : r.attribution.top_levels) {
        std::ostringstream w;
        w.setf(std::ios::fixed);
        w.precision(3);
        w << l.wall_ms;
        os << "<tr><td>" << l.level << "</td><td>" << l.instances << "</td><td>"
           << w.str() << "</td></tr>\n";
      }
      os << "</table>\n";
    }
    if (!r.attribution.top_nets.empty()) {
      os << "<table>\n<tr><th>heaviest net</th><th>aggressors</th>"
         << "<th>peak</th></tr>\n";
      for (const WorkAttribution::NetCost& n : r.attribution.top_nets) {
        os << "<tr><td>" << html_escape(n.net) << "</td><td>" << n.aggressors
           << "</td><td>" << report::fmt_mv(n.peak) << "</td></tr>\n";
      }
      os << "</table>\n";
    }
  }
  os << "</section>\n";
}

/// Prefix-tree of folded stacks; map keys give a deterministic layout.
struct FlameNode {
  std::map<std::string, FlameNode> kids;
  std::uint64_t total = 0;  ///< microseconds in this frame or deeper
};

void flame_insert(FlameNode& root, std::string_view stack, std::uint64_t us) {
  FlameNode* node = &root;
  node->total += us;
  while (!stack.empty()) {
    const std::size_t sep = stack.find(';');
    const std::string_view frame =
        sep == std::string_view::npos ? stack : stack.substr(0, sep);
    stack = sep == std::string_view::npos ? std::string_view{} : stack.substr(sep + 1);
    node = &node->kids[std::string(frame)];
    node->total += us;
  }
}

void flame_rects(std::ostream& os, const FlameNode& node, double x, double width,
                 int depth, std::uint64_t root_total) {
  static constexpr double kRow = 17.0;
  static constexpr const char* kFills[] = {"#d9702d", "#e08a3c", "#c85a32",
                                           "#e0a030", "#d9822d", "#c86a45"};
  double cx = x;
  for (const auto& [name, kid] : node.kids) {
    const double w =
        width * static_cast<double>(kid.total) / static_cast<double>(node.total);
    if (w >= 0.5) {
      std::size_t h = 1469598103u;
      for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
      const double pct =
          100.0 * static_cast<double>(kid.total) / static_cast<double>(root_total);
      std::ostringstream p;
      p.setf(std::ios::fixed);
      p.precision(1);
      p << pct;
      os << "<g><rect x=\"" << report::fmt_fixed(cx, 1) << "\" y=\"" << depth * kRow
         << "\" width=\"" << report::fmt_fixed(w, 1) << "\" height=\"" << kRow - 1.0
         << "\" fill=\"" << kFills[h % (sizeof kFills / sizeof kFills[0])]
         << "\"><title>" << html_escape(name) << " — " << kid.total << " µs ("
         << p.str() << "%)</title></rect>\n";
      if (w >= 40.0) {
        os << "<text class=\"flabel\" x=\"" << report::fmt_fixed(cx + 3.0, 1)
           << "\" y=\"" << depth * kRow + 12.0 << "\">" << html_escape(name)
           << "</text>\n";
      }
      os << "</g>\n";
      flame_rects(os, kid, cx, w, depth + 1, root_total);
    }
    cx += w;
  }
}

int flame_depth(const FlameNode& node) {
  int deepest = 0;
  for (const auto& [name, kid] : node.kids) {
    deepest = std::max(deepest, 1 + flame_depth(kid));
  }
  return deepest;
}

void write_flame(std::ostream& os, const std::vector<obs::FoldedEntry>& profile) {
  os << "<section id=\"flame\">\n<h2>Span stacks (flamegraph)</h2>\n";
  std::uint64_t total = 0;
  FlameNode root;
  for (const obs::FoldedEntry& e : profile) {
    flame_insert(root, e.stack, e.us);
    total += e.us;
  }
  if (total == 0) {
    os << "<p>Profiling disabled — rerun with <code>--profile-out FILE</code> "
       << "to fold span time into stacks.</p>\n"
       << "</section>\n";
    return;
  }
  static constexpr double kWidth = 860.0;
  const int depth = flame_depth(root);
  const double height = depth * 17.0 + 4.0;
  os << "<p class=\"legend\">" << total << " µs; frame width is the share of "
     << "time in that span and the spans below it (hover for µs).</p>\n";
  os << "<svg width=\"" << kWidth << "\" height=\"" << report::fmt_fixed(height, 1)
     << "\" viewBox=\"0 0 " << kWidth << " " << report::fmt_fixed(height, 1)
     << "\">\n";
  flame_rects(os, root, 0.0, kWidth, 0, total);
  os << "</svg>\n</section>\n";
}

void write_live(std::ostream& os, const obs::TimeSeriesSnapshot& ts) {
  os << "<section id=\"live\">\n<h2>Live telemetry</h2>\n";
  if (ts.samples.empty()) {
    os << "<p>Sampling disabled — rerun with <code>--sample-ms 250</code> to "
       << "record periodic telemetry samples for this panel.</p>\n"
       << "</section>\n";
    return;
  }
  os << "<p class=\"legend\">" << ts.samples.size() << " samples every "
     << ts.interval_ms << " ms (" << ts.total
     << " recorded, ring keeps " << ts.capacity
     << "); one sparkline per series over the retained window.</p>\n";
  static constexpr double kW = 320.0;
  static constexpr double kH = 26.0;
  static constexpr double kPad = 2.0;
  os << "<table>\n<tr><th>series</th><th>trend</th><th>min</th><th>last</th>"
     << "<th>max</th></tr>\n";
  const std::size_t n = ts.samples.size();
  for (std::size_t si = 0; si < ts.series.size(); ++si) {
    double lo = 0.0;
    double hi = 0.0;
    bool first = true;
    for (const obs::TimeSample& s : ts.samples) {
      if (si >= s.v.size()) continue;
      const double v = s.v[si];
      if (first) {
        lo = hi = v;
        first = false;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    const double span = (hi > lo) ? (hi - lo) : 1.0;
    os << "<tr><td>" << html_escape(ts.series[si]) << "</td><td>"
       << "<svg class=\"sparkbox\" width=\"" << kW << "\" height=\"" << kH
       << "\" viewBox=\"0 0 " << kW << " " << kH << "\"><polyline class=\"spark\" "
       << "points=\"";
    for (std::size_t i = 0; i < n; ++i) {
      const double v = si < ts.samples[i].v.size() ? ts.samples[i].v[si] : 0.0;
      const double x =
          n > 1 ? kPad + (kW - 2.0 * kPad) * static_cast<double>(i) /
                             static_cast<double>(n - 1)
                : kW / 2.0;
      const double y = kH - kPad - (kH - 2.0 * kPad) * (v - lo) / span;
      if (i != 0) os << ' ';
      os << report::fmt_fixed(x, 1) << ',' << report::fmt_fixed(y, 1);
    }
    const double last =
        si < ts.samples.back().v.size() ? ts.samples.back().v[si] : 0.0;
    os << "\"/></svg></td><td>" << report::fmt_sci(lo) << "</td><td>"
       << report::fmt_sci(last) << "</td><td>" << report::fmt_sci(hi)
       << "</td></tr>\n";
  }
  os << "</table>\n</section>\n";
}

/// "12.3 MB" rendering for the memory panel; JSON consumers get raw bytes
/// from the stats document instead.
std::string fmt_bytes(double v) {
  const char* unit = "B";
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    v /= 1024.0 * 1024.0 * 1024.0;
    unit = "GB";
  } else if (v >= 1024.0 * 1024.0) {
    v /= 1024.0 * 1024.0;
    unit = "MB";
  } else if (v >= 1024.0) {
    v /= 1024.0;
    unit = "KB";
  }
  return report::fmt_fixed(v, 1) + " " + unit;
}

void write_memory(std::ostream& os) {
  os << "<section id=\"memory\">\n<h2>Memory accounting</h2>\n";
  const std::vector<obs::MemAccountSample> snap = obs::MemTracker::snapshot();
  double total_peak = 0.0;
  for (const obs::MemAccountSample& a : snap) {
    total_peak += static_cast<double>(a.peak_bytes);
  }
  if (!obs::memtrack_enabled() || total_peak <= 0.0) {
    os << "<p>Memory tracking disabled or no tracked allocations — the "
       << "per-subsystem accounts in the stats JSON carry the same data.</p>\n"
       << "</section>\n";
    return;
  }
  os << "<p class=\"legend\">Per-subsystem heap accounts at render time; the "
     << "bar is each account's share of the summed peaks.</p>\n";
  os << "<table>\n<tr><th>account</th><th>current</th><th>peak</th>"
     << "<th>allocs</th><th>frees</th><th>share of peak</th></tr>\n";
  for (const obs::MemAccountSample& a : snap) {
    if (a.peak_bytes == 0 && a.allocs == 0) continue;
    const double pct =
        100.0 * static_cast<double>(a.peak_bytes) / total_peak;
    os << "<tr><td>" << html_escape(std::string(a.name)) << "</td><td>"
       << fmt_bytes(static_cast<double>(a.current_bytes)) << "</td><td>"
       << fmt_bytes(static_cast<double>(a.peak_bytes)) << "</td><td>"
       << a.allocs << "</td><td>" << a.frees
       << "</td><td><span class=\"ubar\"><span class=\"ufill\" style=\"width:"
       << report::fmt_fixed(pct, 1) << "%\"></span></span> "
       << report::fmt_fixed(pct, 1) << "%</td></tr>\n";
  }
  const obs::ResourceSample rss = obs::sample_resources();
  os << "<tr><th>tracked total</th><td>"
     << fmt_bytes(static_cast<double>(obs::MemTracker::total_current()))
     << "</td><td>" << fmt_bytes(total_peak)
     << "</td><td>-</td><td>-</td><td>-</td></tr>\n"
     << "<tr><th>process rss</th><td>"
     << fmt_bytes(static_cast<double>(rss.rss_bytes)) << "</td><td>"
     << fmt_bytes(static_cast<double>(rss.peak_rss_bytes))
     << "</td><td>-</td><td>-</td><td>-</td></tr>\n";
  os << "</table>\n</section>\n";
}

void write_phases(std::ostream& os, const Result& r) {
  os << "<section id=\"phases\">\n<h2>Phases &amp; request latency</h2>\n";
  os << "<table>\n<tr><th>metric</th><th>kind</th><th>value</th>"
     << "<th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>\n";
  for (const auto& s : r.metrics.samples) {
    os << "<tr><td>" << html_escape(s.name) << "</td>";
    switch (s.kind) {
      case obs::MetricSample::Kind::kCounter:
        os << "<td>counter</td><td>" << s.count
           << "</td><td>-</td><td>-</td><td>-</td><td>-</td>";
        break;
      case obs::MetricSample::Kind::kGauge:
        os << "<td>gauge</td><td>" << report::fmt_sci(s.value);
        if (!s.unit.empty()) os << ' ' << html_escape(s.unit);
        os << "</td><td>-</td><td>-</td><td>-</td><td>-</td>";
        break;
      case obs::MetricSample::Kind::kHistogram:
        os << "<td>histogram</td><td>n=" << s.hist.count << "</td><td>"
           << report::fmt_sci(obs::histogram_quantile(s.hist, 0.50)) << "</td><td>"
           << report::fmt_sci(obs::histogram_quantile(s.hist, 0.95)) << "</td><td>"
           << report::fmt_sci(obs::histogram_quantile(s.hist, 0.99)) << "</td><td>"
           << report::fmt_sci(s.hist.max) << "</td>";
        break;
    }
    os << "</tr>\n";
  }
  os << "</table>\n</section>\n";
}

constexpr const char* kStyle = R"css(
body { font: 14px/1.45 system-ui, sans-serif; margin: 24px auto; max-width: 900px;
       color: #222; }
h1 { font-size: 20px; } h2 { font-size: 15px; margin: 18px 0 6px; }
section { margin-bottom: 20px; }
table { border-collapse: collapse; font-size: 12px; }
th, td { border: 1px solid #ddd; padding: 3px 8px; text-align: left; }
th { background: #f4f6f8; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile { border: 1px solid #ddd; border-radius: 6px; padding: 8px 14px;
        min-width: 110px; }
.tile .num { font-size: 20px; font-weight: 600; }
.tile .cap { font-size: 11px; color: #666; }
.legend { font-size: 11px; color: #555; }
.sw { display: inline-block; width: 12px; height: 10px; margin: 0 4px 0 10px; }
svg { display: block; }
svg .grid { stroke: #e3e6ea; stroke-width: 1; }
svg .tick { font: 10px system-ui, sans-serif; fill: #667; }
svg .label { font: 11px system-ui, sans-serif; fill: #333; }
svg .value { font: 10px system-ui, sans-serif; fill: #555; }
.bar, svg .bar { fill: #4878a8; }
.bin, svg .bin { fill: #4878a8; }
.binbad, svg .binbad { fill: #c0504d; }
svg .cumline { stroke: #e0a030; stroke-width: 2; }
.win, svg .win { fill: #9dc3e6; fill-opacity: 0.8; }
.sens, svg .sens { fill: #70ad47; fill-opacity: 0.45; }
.align, svg .align { fill: #c0504d; fill-opacity: 0.9; }
.ubar { display: inline-block; width: 120px; height: 10px; background: #eef1f4;
        border: 1px solid #ddd; vertical-align: middle; }
.ufill { height: 100%; background: #4878a8; }
svg .flabel { font: 10px system-ui, sans-serif; fill: #fff; }
svg.sparkbox { display: inline-block; background: #f8f9fa;
               border: 1px solid #e3e6ea; vertical-align: middle; }
.spark, svg .spark { fill: none; stroke: #4878a8; stroke-width: 1.5; }
)css";

}  // namespace

void write_html_report(std::ostream& os, const net::Design& design,
                       const Options& opt, const Result& r,
                       const HtmlReportOptions& hopt) {
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
     << "<title>noisewin dashboard — " << html_escape(design.name())
     << "</title>\n<style>" << kStyle << "</style>\n</head>\n<body>\n"
     << "<h1>noisewin dashboard — " << html_escape(design.name()) << "</h1>\n";

  os << "<section id=\"meta\">\n<h2>Run</h2>\n<table>\n";
  meta_row(os, "design", r.run_meta.design);
  meta_row(os, "mode", r.run_meta.mode);
  meta_row(os, "model", r.run_meta.model);
  meta_row(os, "options digest", r.run_meta.options_digest);
  meta_row(os, "build", r.run_meta.build);
  meta_row(os, "threads", std::to_string(r.run_meta.threads));
  meta_row(os, "iterations", std::to_string(r.iterations));
  meta_row(os, "epoch", std::to_string(r.epoch));
  os << "</table>\n</section>\n";

  os << "<section id=\"summary\">\n<h2>Summary</h2>\n<div class=\"tiles\">\n";
  summary_tile(os, std::to_string(r.violations.size()), "violations");
  summary_tile(os, std::to_string(r.endpoints_checked), "endpoints checked");
  summary_tile(os, std::to_string(r.noisy_nets), "noisy nets");
  summary_tile(os, std::to_string(r.aggressors_considered), "aggressor pairs");
  summary_tile(os, std::to_string(r.aggressors_filtered_temporal),
               "temporally filtered");
  summary_tile(os, std::to_string(design.net_count()), "nets");
  os << "</div>\n</section>\n";

  const std::vector<std::size_t> order = worst_first(r);
  write_timelines(os, design, r, opt, order);
  write_pareto(os, design, r);
  write_slack_hist(os, r);
  write_executor(os, r);
  write_flame(os, hopt.profile);
  write_live(os, hopt.timeseries);
  write_memory(os);
  write_phases(os, r);

  os << "</body>\n</html>\n";
}

}  // namespace nw::noise
