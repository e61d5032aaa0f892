// Versioned JSONL request/response protocol over a Session.
//
// One request per line, one response per line, always — the transport
// invariant clients rely on. Requests are JSON objects:
//
//   {"id": 1, "cmd": "violations", "args": {"limit": 10}}
//
// Responses echo the id and carry either a result or a structured error:
//
//   {"id": 1, "ok": true, "data": {...}}
//   {"id": 1, "ok": false, "error": {"code": "not_found", "message": "..."}}
//
// Malformed input of any shape — truncated JSON, wrong types, oversized
// lines, unknown commands — produces an error response, never an exception
// out of handle_line and never a crash. Error codes are a closed set:
//   parse_error   the line is not valid JSON
//   bad_request   valid JSON but not a well-formed request envelope
//   unknown_cmd   no such command
//   bad_args      command rejected its arguments (validation failed)
//   not_found     a named net/instance/port does not exist
//   cancelled     an in-flight analysis was cooperatively cancelled; the
//                 session keeps its pre-analyze state (epoch unchanged)
//   overloaded    the server shed the request under load (daemon admission
//                 control); the error object carries "retry_after_ms"
//   internal      unexpected failure (the message says what)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "session/json.hpp"
#include "session/reqobs.hpp"
#include "session/session.hpp"

namespace nw::session {

/// Protocol schema version, reported by `hello` and bumped on any
/// incompatible change to commands or response layouts.
inline constexpr int kProtocolVersion = 1;

/// Upper bound on one request line; longer lines are rejected with
/// bad_request before parsing (a hostile client cannot balloon the heap).
inline constexpr std::size_t kMaxLineBytes = 1u << 20;

/// Client-supplied list limits (`limit`, the shell's `violations n`)
/// saturate here before their cast to size_t: far above any list a design
/// yields, and inside size_t's range, so the cast is always defined.
inline constexpr double kMaxListLimit = 1e15;

/// Transport/limit facts the server advertises in `hello` so clients can
/// feature-detect (daemon vs stdio, quotas) without out-of-band config.
struct ServerCaps {
  std::string transport = "stdio";  ///< "stdio" | "unix" | "tcp"
  bool daemon = false;              ///< true when served by `noisewin daemon`
  std::uint64_t connection_id = 0;  ///< daemon connection ordinal (0 on stdio)
  std::size_t max_queued = 0;       ///< per-connection request-queue bound (0 = unbounded)
  int max_connections = 0;          ///< daemon connection cap (0 = n/a)
  int analysis_slots = 0;           ///< concurrent analyses admitted (0 = unlimited)
  int idle_timeout_s = 0;           ///< idle disconnect, seconds (0 = never)
};

/// Admission control hook for analysis-triggering commands. The protocol
/// consults it only when the session would actually run an analysis (cache
/// hits are never charged); a denied ticket becomes a structured
/// `overloaded` error carrying the retry-after hint.
class AnalysisGate {
 public:
  struct Ticket {
    bool admitted = true;
    int retry_after_ms = 0;   ///< when denied: suggested client backoff
    std::string reason;       ///< when denied: human-readable cause
  };

  virtual ~AnalysisGate() = default;

  /// Reserve an analysis slot (may block briefly behind in-flight
  /// analyses). Called from the connection's worker thread.
  [[nodiscard]] virtual Ticket admit(const std::string& cmd) = 0;

  /// Release the slot reserved by an admitted ticket; `analyze_ms` is the
  /// wall time the slot was held (feeds the shedding policy's latency EWMA).
  virtual void release(double analyze_ms) = 0;
};

class Protocol {
 public:
  /// Registers its request counters into the session's registry, so one
  /// stats snapshot covers engine and transport. With a RequestContext the
  /// protocol additionally assigns request ids, opens request trace spans,
  /// feeds per-command latency histograms, and maintains the slow log
  /// (nullptr keeps the bare transport — embedded/test use).
  explicit Protocol(Session& session, RequestContext* reqobs = nullptr);

  /// Handle one request line; returns exactly one response line (without
  /// the trailing newline). Never throws on client input.
  [[nodiscard]] std::string handle_line(std::string_view line);

  /// Transport facts advertised by `hello` (defaults to stdio, no limits).
  void set_caps(ServerCaps caps) { caps_ = std::move(caps); }
  [[nodiscard]] const ServerCaps& caps() const noexcept { return caps_; }

  /// Install admission control for analysis-triggering commands (nullptr =
  /// always admit — the stdio server's mode). Not owned.
  void set_gate(AnalysisGate* gate) noexcept { gate_ = gate; }

  /// Enable the `shutdown` command: the handler runs on the dispatching
  /// thread and its return value becomes the response data. Without one,
  /// `shutdown` is unknown_cmd (a stdio client just closes its pipe).
  void set_shutdown_handler(std::function<Json()> handler) {
    shutdown_ = std::move(handler);
  }

  /// Merge extra members into the `stats` response (the daemon installs one
  /// returning its "daemon"/"timeseries"/"latency" sections; `args` is the
  /// request's args object, so clients can ask for the last-N samples via
  /// {"samples": N}). The returned object's members are merged over the
  /// base response.
  void set_stats_augmenter(std::function<Json(const Json& args)> augmenter) {
    stats_extra_ = std::move(augmenter);
  }

  /// Enable the `watch` command (streaming stats events over the event-line
  /// channel). The handler runs on the dispatching thread; its return value
  /// becomes the response data. Without one, `watch` is unknown_cmd (the
  /// stdio server has no event streamer).
  void set_watch_handler(std::function<Json(const Json& args)> handler) {
    watch_ = std::move(handler);
  }

  // Metric names (registered in the session's registry).
  static constexpr const char* kMetricRequests = "protocol_requests";
  static constexpr const char* kMetricErrors = "protocol_errors";

 private:
  [[nodiscard]] Json dispatch(const std::string& cmd, const Json& args);

  Session& session_;
  RequestContext* reqobs_;  ///< not owned; may be nullptr
  ServerCaps caps_;
  AnalysisGate* gate_ = nullptr;      ///< not owned; may be nullptr
  std::function<Json()> shutdown_;    ///< empty unless the daemon installs one
  std::function<Json(const Json&)> stats_extra_;  ///< daemon stats sections
  std::function<Json(const Json&)> watch_;        ///< daemon stats streaming
  obs::Counter& requests_;
  obs::Counter& errors_;
};

}  // namespace nw::session
