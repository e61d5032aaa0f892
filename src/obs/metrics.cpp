#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#ifndef NW_GIT_DESCRIBE
#define NW_GIT_DESCRIBE "unknown"
#endif

#ifndef NW_GIT_SHA
#define NW_GIT_SHA "unknown"
#endif

namespace nw::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

namespace {

/// CAS-loop update of a running extreme. The first observation must win
/// regardless of value, so "empty" is flagged by count == 0 at the caller
/// and this only races against other real observations.
template <typename Better>
void update_extreme(std::atomic<double>& slot, double v, bool first, Better better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (first || better(v, cur)) {
    if (slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) return;
    first = false;
  }
}

}  // namespace

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  const bool first = count_.fetch_add(1, std::memory_order_relaxed) == 0;
  sum_.fetch_add(v, std::memory_order_relaxed);
  update_extreme(min_, v, first, [](double a, double b) { return a < b; });
  update_extreme(max_, v, first, [](double a, double b) { return a > b; });
}

HistogramData Histogram::data() const {
  HistogramData d;
  d.bounds = bounds_;
  d.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  d.count = count_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  d.min = d.count > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
  d.max = d.count > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
  return d;
}

double histogram_quantile(const HistogramData& h, double q) noexcept {
  if (h.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested observation (1-based, midpoint convention keeps
  // p50 of a single value at that value).
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const std::uint64_t in_bucket = h.counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      // Bucket i spans (lo, hi]; pin the outermost edges to the exact
      // extremes so quantiles never leave the observed range.
      const double lo = i == 0 ? h.min : std::max(h.min, h.bounds[i - 1]);
      const double hi = i < h.bounds.size() ? std::min(h.max, h.bounds[i]) : h.max;
      const double within =
          std::clamp((rank - static_cast<double>(cum)) / static_cast<double>(in_bucket),
                     0.0, 1.0);
      return std::clamp(lo + (hi - lo) * within, h.min, h.max);
    }
    cum += in_bucket;
  }
  return h.max;
}

const MetricSample* MetricsSnapshot::find(std::string_view name) const noexcept {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

MetricSample wall_ms_sample(std::string name, std::string help, double ms) {
  MetricSample s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.unit = "ms";
  s.kind = MetricSample::Kind::kGauge;
  s.deterministic = false;
  s.value = ms;
  return s;
}

struct Registry::Entry {
  std::string name;
  std::string help;
  std::string unit;
  MetricSample::Kind kind;
  bool deterministic = true;
  bool resource = false;
  Counter counter;
  Gauge gauge;
  std::unique_ptr<Histogram> hist;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry::Entry& Registry::find_or_create(std::string_view name, std::string_view help,
                                          std::string_view unit,
                                          MetricSample::Kind kind, bool deterministic,
                                          bool resource, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& e : entries_) {
    if (e->name == name) {
      if (e->kind != kind) {
        throw std::logic_error("Registry: metric '" + e->name +
                               "' re-registered with a different kind");
      }
      return *e;
    }
  }
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  e->help = std::string(help);
  e->unit = std::string(unit);
  e->kind = kind;
  // Resource metrics are environment readings (RSS, live byte counts) and
  // can never be deterministic across machines or thread counts.
  e->deterministic = deterministic && !resource;
  e->resource = resource;
  if (kind == MetricSample::Kind::kHistogram) {
    e->hist = std::make_unique<Histogram>(std::move(bounds));
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           bool deterministic, bool resource) {
  return find_or_create(name, help, "", MetricSample::Kind::kCounter, deterministic,
                        resource, {})
      .counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       std::string_view unit, bool deterministic, bool resource) {
  return find_or_create(name, help, unit, MetricSample::Kind::kGauge, deterministic,
                        resource, {})
      .gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds, std::string_view unit,
                               bool deterministic, bool resource) {
  return *find_or_create(name, help, unit, MetricSample::Kind::kHistogram, deterministic,
                         resource, std::move(bounds))
              .hist;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.samples.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.help = e->help;
    s.unit = e->unit;
    s.kind = e->kind;
    s.deterministic = e->deterministic;
    s.resource = e->resource;
    switch (e->kind) {
      case MetricSample::Kind::kCounter: s.count = e->counter.value(); break;
      case MetricSample::Kind::kGauge: s.value = e->gauge.value(); break;
      case MetricSample::Kind::kHistogram: s.hist = e->hist->data(); break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

const char* build_version() noexcept { return NW_GIT_DESCRIBE; }

const char* git_sha() noexcept { return NW_GIT_SHA; }

const char* build_type() noexcept {
#ifdef NDEBUG
  return "Release";
#else
  return "Debug";
#endif
}

}  // namespace nw::obs
