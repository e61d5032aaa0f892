#include "net/governor.hpp"

#include <algorithm>
#include <cmath>

namespace nw::net {

LoadGovernor::LoadGovernor(Config config, obs::Registry& reg)
    : cfg_(config),
      ewma_ms_(kSeedEwmaMs),
      admitted_(reg.counter(kMetricAdmitted, "analyses admitted through the gate",
                            /*deterministic=*/false)),
      shed_(reg.counter(kMetricShed, "requests shed with 'overloaded'",
                        /*deterministic=*/false)),
      inflight_g_(reg.gauge(kMetricInflight, "analyses holding a slot now", "",
                            /*deterministic=*/false)),
      waiting_g_(reg.gauge(kMetricWaiting, "admissions queued behind full slots", "",
                           /*deterministic=*/false)),
      analyze_ms_(reg.histogram(kMetricAnalyzeMs, "slot hold time per analysis",
                                {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000},
                                "ms", /*deterministic=*/false)) {
  cfg_.slots = std::max(cfg_.slots, 0);
  cfg_.max_waiters = std::max(cfg_.max_waiters, 0);
  if (ewma_ms_ <= 0.0 || !std::isfinite(ewma_ms_)) ewma_ms_ = 50.0;
}

LoadGovernor::Ticket LoadGovernor::admit(const std::string& /*cmd*/) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto shed = [&](int queue_position) {
    shed_.add();
    Ticket t;
    t.admitted = false;
    // Expected wait = positions ahead of us, each ~one analysis. Floor at
    // 1ms so a client never gets "retry immediately" while we are shedding.
    t.retry_after_ms = static_cast<int>(
        std::max(1.0, std::ceil(ewma_ms_ * std::max(1, queue_position))));
    t.reason = cfg_.slots == 0
                   ? "analysis slots disabled (maintenance mode)"
                   : "all " + std::to_string(cfg_.slots) + " analysis slots busy, " +
                         std::to_string(waiting_) + " waiting";
    return t;
  };
  if (cfg_.slots == 0) return shed(1);
  while (inflight_ >= cfg_.slots) {
    if (waiting_ >= cfg_.max_waiters) return shed(waiting_ + 1);
    ++waiting_;
    waiting_g_.set(static_cast<double>(waiting_));
    cv_.wait(lock, [this] { return inflight_ < cfg_.slots; });
    --waiting_;
    waiting_g_.set(static_cast<double>(waiting_));
  }
  ++inflight_;
  inflight_g_.set(static_cast<double>(inflight_));
  admitted_.add();
  return Ticket{};
}

void LoadGovernor::release(double analyze_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ = std::max(0, inflight_ - 1);
    inflight_g_.set(static_cast<double>(inflight_));
    if (analyze_ms >= 0.0 && std::isfinite(analyze_ms)) {
      constexpr double kAlpha = 0.3;  // responsive but not jumpy
      ewma_ms_ = (1.0 - kAlpha) * ewma_ms_ + kAlpha * analyze_ms;
      analyze_ms_.observe(analyze_ms);
      if (latency_window_ != nullptr) latency_window_->observe(analyze_ms);
    }
  }
  cv_.notify_one();
}

double LoadGovernor::ewma_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_ms_;
}

int LoadGovernor::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

int LoadGovernor::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

void LoadGovernor::set_latency_window(obs::RotatingQuantile* window) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  latency_window_ = window;
}

}  // namespace nw::net
