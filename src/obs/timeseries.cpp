#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace nw::obs {

TimeSeriesRing::TimeSeriesRing(std::vector<std::string> series,
                               std::size_t capacity)
    : series_(std::move(series)), capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void TimeSeriesRing::record(double t_ms, std::vector<double> values) {
  values.resize(series_.size(), 0.0);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(TimeSample{t_ms, std::move(values)});
  } else {
    TimeSample& slot = ring_[total_ % capacity_];
    slot.t_ms = t_ms;
    slot.v = std::move(values);
  }
  ++total_;
}

TimeSeriesSnapshot TimeSeriesRing::snapshot(std::size_t last_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  TimeSeriesSnapshot snap;
  snap.interval_ms = interval_ms_;
  snap.capacity = capacity_;
  snap.total = total_;
  snap.series = series_;
  const std::size_t have = ring_.size();
  std::size_t n = (last_n == 0) ? have : std::min(last_n, have);
  snap.samples.reserve(n);
  // Oldest retained sample lives at total_ % capacity_ once wrapped,
  // at 0 before that; emit the last n in chronological order.
  const std::size_t first = (have < capacity_) ? 0 : total_ % capacity_;
  for (std::size_t i = have - n; i < have; ++i) {
    snap.samples.push_back(ring_[(first + i) % have]);
  }
  return snap;
}

void TimeSeriesRing::set_interval_ms(int interval_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  interval_ms_ = interval_ms;
}

RotatingQuantile::RotatingQuantile(std::vector<double> bounds,
                                   std::size_t windows)
    : bounds_(std::move(bounds)) {
  wins_.resize(std::max<std::size_t>(1, windows));
  for (Window& w : wins_) w.counts.assign(bounds_.size() + 1, 0);
}

void RotatingQuantile::observe(double v) {
  if (!std::isfinite(v)) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard<std::mutex> lock(mu_);
  Window& w = wins_[cur_];
  ++w.counts[bucket];
  if (w.count == 0) {
    w.min = w.max = v;
  } else {
    w.min = std::min(w.min, v);
    w.max = std::max(w.max, v);
  }
  ++w.count;
  w.sum += v;
}

void RotatingQuantile::rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  cur_ = (cur_ + 1) % wins_.size();
  Window& w = wins_[cur_];
  std::fill(w.counts.begin(), w.counts.end(), 0);
  w.count = 0;
  w.sum = 0.0;
  w.min = 0.0;
  w.max = 0.0;
}

HistogramData RotatingQuantile::merged_locked() const {
  HistogramData h;
  h.bounds = bounds_;
  h.counts.assign(bounds_.size() + 1, 0);
  for (const Window& w : wins_) {
    if (w.count == 0) continue;
    for (std::size_t i = 0; i < w.counts.size(); ++i) h.counts[i] += w.counts[i];
    if (h.count == 0) {
      h.min = w.min;
      h.max = w.max;
    } else {
      h.min = std::min(h.min, w.min);
      h.max = std::max(h.max, w.max);
    }
    h.count += w.count;
    h.sum += w.sum;
  }
  return h;
}

double RotatingQuantile::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_quantile(merged_locked(), q);
}

Sampler::Sampler(TimeSeriesRing& ring, SampleFn fn, int interval_ms)
    : ring_(ring),
      fn_(std::move(fn)),
      interval_ms_(std::clamp(interval_ms, 1, 60000)) {}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  t0_ = std::chrono::steady_clock::now();
  ring_.set_interval_ms(interval_ms_);
  // First sample lands synchronously (t = 0), so a ring is never empty
  // between start() and the first tick; the thread takes over from t0+1.
  ring_.record(0.0, fn_ ? fn_() : std::vector<double>{});
  thread_ = std::thread([this] { loop(); });
}

void Sampler::stop() {
  std::thread joiner;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
    joiner = std::move(thread_);
  }
  cv_.notify_all();
  if (joiner.joinable()) joiner.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void Sampler::loop() {
  auto next = t0_ + std::chrono::milliseconds(interval_ms_);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_until(lock, next, [this] { return stop_; });
      if (stop_) return;
    }
    const double t_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0_)
            .count();
    ring_.record(t_ms, fn_ ? fn_() : std::vector<double>{});
    next += std::chrono::milliseconds(interval_ms_);
  }
}

}  // namespace nw::obs
