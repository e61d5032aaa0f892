// Request-scoped observability for the session server.
//
// A RequestContext rides along one server conversation (serve/shell own
// one per session) and gives every protocol command:
//   - a monotonically increasing request id, stamped into trace spans on
//     the server thread's track so `--trace-out` shows
//     request → analyze → phase nesting end-to-end,
//   - a per-command latency histogram (request_ms_<cmd>) in the session
//     registry — nondeterministic, so it lands in the "timing" section of
//     the stats JSON with min/max/p50/p95/p99,
//   - a bounded slow-request log: commands slower than the threshold are
//     remembered (oldest evicted first) and exported by the `slowlog`
//     protocol command and the --stats-json "slowlog" section; each slow
//     request also emits a rate-limited NW_LOG warning naming the request
//     id, so a hung client is diagnosable from stderr alone.
//
// Metric cardinality is bounded: requests that fail before command
// resolution (parse_error / bad_request / unknown_cmd) are attributed to
// the reserved "_invalid" command, so a hostile client cannot balloon the
// registry with one histogram per garbage line.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "session/json.hpp"
#include "session/session.hpp"

namespace nw::session {

/// One remembered over-threshold request.
struct SlowRequest {
  std::uint64_t id = 0;   ///< request id (monotonic per context)
  std::uint64_t connection = 0;  ///< daemon connection id (0 = stdio serve)
  std::string cmd;        ///< resolved command ("_invalid" pre-resolution)
  double ms = 0.0;        ///< wall time of handle_line
  bool ok = true;         ///< false when the response was an error
  bool has_phases = false;  ///< the request ran an analysis
  /// Phase wall times of that analysis — *where* a slow request was slow,
  /// not just how long it took. Meaningful only when has_phases; rendered
  /// in ms by slowlog_json().
  Session::AnalysisPhases phases;
  /// One-shot folded-profile capture ("stack count" lines, heaviest first):
  /// where this request spent its sampled time. Only populated while the
  /// sampling profiler runs, and bounded (kMaxProfileLines) so the slow
  /// log stays small.
  std::vector<std::string> profile;
};

/// Bounded FIFO of slow requests: capacity-oldest are evicted, total
/// recorded count is kept so consumers can see how many fell off.
class SlowLog {
 public:
  explicit SlowLog(std::size_t capacity) : capacity_(capacity) {}

  void record(SlowRequest r);
  [[nodiscard]] std::vector<SlowRequest> entries() const;  ///< oldest first
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t total_recorded() const;

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<SlowRequest> entries_;
  std::uint64_t total_ = 0;
};

/// Per-conversation request observability state. The protocol layer calls
/// next_id() / observe() around each command; everything else is export.
class RequestContext {
 public:
  /// Latency histograms are registered into `registry` (the session's, so
  /// one stats snapshot covers engine, transport, and request latency).
  explicit RequestContext(obs::Registry& registry, double slow_ms = 100.0,
                          std::size_t slowlog_capacity = 32);

  [[nodiscard]] std::uint64_t next_id() noexcept;
  [[nodiscard]] double slow_ms() const noexcept { return slow_ms_; }

  /// Attribute this context to a daemon connection: slow-log entries gain
  /// a "conn" field and the slow-request warning names the connection.
  /// 0 (the default) marks a stdio conversation and renders nothing.
  void set_connection(std::uint64_t id) noexcept { connection_ = id; }
  [[nodiscard]] std::uint64_t connection() const noexcept { return connection_; }

  /// Also mirror latency observations into a second registry (the
  /// daemon's), aggregating request_ms_* across every connection so the
  /// `stats` command and nwtop see fleet-wide latency, not one client's.
  /// nullptr (the default) disables mirroring.
  void set_aggregate(obs::Registry* reg) noexcept { aggregate_ = reg; }

  /// Record one handled request: feeds the command's latency histogram and,
  /// when over threshold, the slow log + a rate-limited warning. `cmd` must
  /// already be cardinality-bounded (see header comment). `phases` is
  /// non-null when the request triggered an analysis; slow entries then
  /// remember the per-phase wall-time breakdown. `profile` carries the
  /// request's folded-profile delta (already bounded by the caller); it is
  /// only attached to slow entries.
  void observe(std::uint64_t id, const std::string& cmd, double ms, bool ok,
               const Session::AnalysisPhases* phases = nullptr,
               std::vector<std::string> profile = {});

  [[nodiscard]] const SlowLog& slow_log() const noexcept { return slow_log_; }

  /// The `slowlog` response / "slowlog" stats section:
  ///   {"threshold_ms":..,"capacity":..,"recorded":..,"entries":[...]}
  [[nodiscard]] Json slowlog_json() const;

  /// Reserved command name for requests that fail before resolution.
  static constexpr const char* kInvalidCommand = "_invalid";
  /// Latency-histogram name prefix ("request_ms_" + command).
  static constexpr const char* kLatencyPrefix = "request_ms_";
  /// Cap on the folded-profile lines attached to one slow entry.
  static constexpr std::size_t kMaxProfileLines = 8;

 private:
  obs::Registry& registry_;
  obs::Registry* aggregate_ = nullptr;
  double slow_ms_;
  std::uint64_t connection_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
  SlowLog slow_log_;
};

}  // namespace nw::session
