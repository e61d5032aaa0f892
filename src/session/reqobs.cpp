#include "session/reqobs.hpp"

#include "obs/log.hpp"

namespace nw::session {

void SlowLog::record(SlowRequest r) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_;
  if (capacity_ == 0) return;
  if (entries_.size() == capacity_) entries_.pop_front();
  entries_.push_back(std::move(r));
}

std::vector<SlowRequest> SlowLog::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {entries_.begin(), entries_.end()};
}

std::uint64_t SlowLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

namespace {

/// Fixed latency buckets [ms]: sub-ms cache hits through multi-second full
/// analyses. The histogram's exact min/max carry the tails beyond them.
const std::vector<double> kLatencyBoundsMs = {0.05, 0.1, 0.25, 0.5,  1.0,   2.5,  5.0,
                                              10.0, 25.0, 50.0, 100.0, 250.0, 1000.0};

}  // namespace

RequestContext::RequestContext(obs::Registry& registry, double slow_ms)
    : registry_(registry), slow_ms_(slow_ms), slow_log_(kSlowLogCapacity) {}

std::uint64_t RequestContext::next_id() noexcept {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void RequestContext::observe(std::uint64_t id, const std::string& cmd, double ms,
                             bool ok, const Session::AnalysisPhases* phases,
                             std::vector<std::string> profile) {
  registry_
      .histogram(std::string(kLatencyPrefix) + cmd, "request latency",
                 kLatencyBoundsMs, "ms", /*deterministic=*/false)
      .observe(ms);
  if (aggregate_ != nullptr) {
    aggregate_
        ->histogram(std::string(kLatencyPrefix) + cmd,
                    "request latency (all connections)", kLatencyBoundsMs, "ms",
                    /*deterministic=*/false)
        .observe(ms);
  }
  if (ms < slow_ms_) return;
  SlowRequest slow;
  slow.id = id;
  slow.connection = connection_;
  slow.cmd = cmd;
  slow.ms = ms;
  slow.ok = ok;
  if (phases != nullptr) {
    slow.has_phases = true;
    slow.phases = *phases;
  }
  if (profile.size() > kMaxProfileLines) profile.resize(kMaxProfileLines);
  slow.profile = std::move(profile);
  slow_log_.record(std::move(slow));
  if (connection_ != 0) {
    NW_LOG(kWarn) << "slow request " << connection_ << "." << id << " (" << cmd
                  << "): " << ms << " ms >= " << slow_ms_ << " ms threshold";
  } else {
    NW_LOG(kWarn) << "slow request " << id << " (" << cmd << "): " << ms
                  << " ms >= " << slow_ms_ << " ms threshold";
  }
}

Json RequestContext::slowlog_json() const {
  Json list = Json::array();
  for (const SlowRequest& r : slow_log_.entries()) {
    Json e = Json::object();
    e.set("id", static_cast<double>(r.id));
    if (r.connection != 0) e.set("conn", static_cast<double>(r.connection));
    e.set("cmd", r.cmd);
    e.set("ms", r.ms);
    e.set("ok", r.ok);
    if (r.has_phases) {
      Json ph = Json::object();
      ph.set("context_ms", r.phases.context_s * 1e3);
      ph.set("estimate_ms", r.phases.estimate_s * 1e3);
      ph.set("propagate_ms", r.phases.propagate_s * 1e3);
      ph.set("endpoints_ms", r.phases.endpoints_s * 1e3);
      e.set("phases", std::move(ph));
    }
    if (!r.profile.empty()) {
      Json pr = Json::array();
      for (const std::string& line : r.profile) pr.push_back(line);
      e.set("profile", std::move(pr));
    }
    list.push_back(std::move(e));
  }
  Json o = Json::object();
  o.set("threshold_ms", slow_ms_);
  o.set("capacity", slow_log_.capacity());
  o.set("recorded", static_cast<double>(slow_log_.total_recorded()));
  o.set("entries", std::move(list));
  return o;
}

}  // namespace nw::session
