#include "session/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "noise/progress.hpp"
#include "obs/profile.hpp"
#include "obs/tracer.hpp"

namespace nw::session {

namespace {

/// Internal control-flow error carrying a protocol error code. Caught at
/// the handle_line boundary and rendered as a structured response. Detail
/// keys (if any) are merged into the error object — `overloaded` carries
/// "retry_after_ms" this way.
struct ProtoError {
  std::string code;
  std::string message;
  Json detail{};
};

/// RAII admission ticket: charges the gate only when the request would run
/// an analysis, and releases the slot (with the held wall time) however
/// dispatch exits. Denial throws `overloaded` before any work.
class GateGuard {
 public:
  GateGuard(AnalysisGate* gate, Session& session, const std::string& cmd) {
    if (gate == nullptr || !session.needs_analysis()) return;
    AnalysisGate::Ticket t = gate->admit(cmd);
    if (!t.admitted) {
      throw ProtoError{"overloaded", std::move(t.reason),
                       Json::object({{"retry_after_ms", t.retry_after_ms}})};
    }
    gate_ = gate;
    t0_ = std::chrono::steady_clock::now();
  }
  ~GateGuard() {
    if (gate_ != nullptr) {
      gate_->release(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0_)
                         .count());
    }
  }
  GateGuard(const GateGuard&) = delete;
  GateGuard& operator=(const GateGuard&) = delete;

 private:
  AnalysisGate* gate_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
};

[[noreturn]] void bad_args(std::string message) {
  throw ProtoError{"bad_args", std::move(message)};
}

const Json& require_object(const Json& args) {
  if (!args.is_object()) throw ProtoError{"bad_args", "args must be an object"};
  return args;
}

std::string arg_string(const Json& args, const char* key) {
  const Json* v = require_object(args).find(key);
  if (v == nullptr || !v->is_string()) {
    bad_args(std::string("missing string argument '") + key + "'");
  }
  return v->as_string();
}

double arg_number(const Json& args, const char* key) {
  const Json* v = require_object(args).find(key);
  if (v == nullptr || !v->is_number() || !std::isfinite(v->as_number())) {
    bad_args(std::string("missing numeric argument '") + key + "'");
  }
  return v->as_number();
}

std::size_t arg_limit(const Json& args, std::size_t fallback) {
  if (!args.is_object()) return fallback;
  const Json* v = args.find("limit");
  if (v == nullptr) return fallback;
  if (!v->is_number() || !std::isfinite(v->as_number()) || v->as_number() < 0 ||
      v->as_number() != std::floor(v->as_number())) {
    bad_args("'limit' must be a non-negative integer");
  }
  return static_cast<std::size_t>(std::min(v->as_number(), kMaxListLimit));
}

Json interval_json(const Interval& iv) {
  Json a = Json::array();
  if (!iv.is_empty()) {
    a.push_back(iv.lo);
    a.push_back(iv.hi);
  }
  return a;
}

Json window_json(const IntervalSet& set) {
  Json a = Json::array();
  for (const Interval& iv : set.intervals()) a.push_back(interval_json(iv));
  return a;
}

Json violation_json(const net::Design& design, const noise::Violation& v) {
  return Json::object({{"endpoint", design.pin_name(v.endpoint)},
                       {"net", design.net(v.net).name},
                       {"peak", v.peak},
                       {"width", v.width},
                       {"threshold", v.threshold},
                       {"slack", v.slack()},
                       {"temporal", v.temporal}});
}

/// One propagation-path step: {net, peak, width}.
Json step_json(const net::Design& design, const noise::ProvenanceStep& step) {
  return Json::object(
      {{"net", design.net(step.net).name}, {"peak", step.peak}, {"width", step.width}});
}

Json share_json(const net::Design& design, const noise::AggressorShare& s) {
  Json o = Json::object();
  if (s.is_propagated()) {
    o.set("source", "propagated");
  } else {
    o.set("source", design.net(s.aggressor).name);
    o.set("coupling_cap", s.coupling_cap);
  }
  if (s.from_net.valid()) o.set("from_net", design.net(s.from_net).name);
  o.set("peak", s.peak);
  o.set("overlap", interval_json(s.overlap));
  o.set("verdict", noise::to_string(s.verdict));
  return o;
}

Json provenance_json(const net::Design& design, const noise::Violation& v,
                     const noise::Provenance& p) {
  Json o = violation_json(design, v);
  o.set("sensitivity", interval_json(v.sensitivity));
  o.set("alignment", interval_json(p.alignment));
  o.set("stages", Json::object({{"unfiltered", p.peak_unfiltered},
                                {"switching_windows", p.peak_switching},
                                {"noise_windows", p.peak_noise_window},
                                {"in_sensitivity", p.peak_in_sensitivity}}));
  o.set("culled_by", noise::to_string(p.culled_by));
  Json shares = Json::array();
  for (const noise::AggressorShare& s : p.shares) {
    shares.push_back(share_json(design, s));
  }
  o.set("aggressors", std::move(shares));
  Json path = Json::array();
  for (const noise::ProvenanceStep& step : p.path) path.push_back(step_json(design, step));
  o.set("path", std::move(path));
  return o;
}

Json metrics_json(const obs::MetricsSnapshot& snap) {
  Json counters = Json::object();
  Json gauges = Json::object();
  for (const obs::MetricSample& s : snap.samples) {
    if (s.kind == obs::MetricSample::Kind::kCounter) {
      counters.set(s.name, static_cast<double>(s.count));
    } else if (s.kind == obs::MetricSample::Kind::kGauge) {
      gauges.set(s.name, s.value);
    }
  }
  Json o = Json::object();
  o.set("counters", std::move(counters));
  o.set("gauges", std::move(gauges));
  return o;
}

}  // namespace

Protocol::Protocol(Session& session, RequestContext* reqobs)
    : session_(session),
      reqobs_(reqobs),
      requests_(session.registry().counter(kMetricRequests, "protocol requests handled")),
      errors_(session.registry().counter(kMetricErrors, "protocol error responses")) {}

Json Protocol::dispatch(const std::string& cmd, const Json& args) {
  // ---- introspection (never triggers analysis) ----------------------------
  if (cmd == "hello") {
    Json o = Json::object({{"protocol", kProtocolVersion},
                           {"design", session_.design().name()},
                           {"nets", session_.design().net_count()},
                           {"instances", session_.design().instance_count()},
                           {"epoch", static_cast<double>(session_.epoch())},
                           {"version", obs::build_version()},
                           {"build", obs::build_type()},
                           {"stats_schema", obs::kStatsSchemaVersion},
                           {"transport", caps_.transport},
                           {"daemon", caps_.daemon}});
    if (caps_.daemon) {
      o.set("connection", static_cast<double>(caps_.connection_id));
    }
    // Optional-command discovery: clients check membership instead of
    // probing with unknown_cmd round trips.
    Json features = Json::array();
    for (const char* f : {"stats", "slowlog", "profile"}) features.push_back(f);
    if (watch_) features.push_back("watch");
    if (shutdown_) features.push_back("shutdown");
    o.set("features", std::move(features));
    o.set("limits", Json::object({{"max_line_bytes", kMaxLineBytes},
                                  {"max_queued", caps_.max_queued},
                                  {"max_connections", caps_.max_connections},
                                  {"analysis_slots", caps_.analysis_slots},
                                  {"idle_timeout_s", caps_.idle_timeout_s}}));
    return o;
  }
  if (cmd == "stats") {
    Json o = metrics_json(session_.metrics_snapshot());
    o.set("epoch", static_cast<double>(session_.epoch()));
    o.set("undo_depth", session_.undo_depth());
    if (stats_extra_) {
      const Json extra = stats_extra_(args);
      if (extra.is_object()) {
        for (const auto& [k, v] : extra.members()) o.set(k, v);
      }
    }
    return o;
  }
  if (cmd == "slowlog") {
    if (reqobs_ == nullptr) {
      return Json::object({{"enabled", false}, {"entries", Json::array()}});
    }
    Json o = reqobs_->slowlog_json();
    o.set("enabled", true);
    return o;
  }
  if (cmd == "profile") {
    // Controls the process-wide sampling profiler: requests between a
    // `start` and a `stop` get span-stack samples (and slow ones a folded
    // capture in the slow log); `dump` returns the aggregate so far.
    const std::string action = arg_string(args, "action");
    Json o = Json::object();
    if (action == "start") {
      int hz = 97;
      if (require_object(args).find("hz") != nullptr) {
        const double n = arg_number(args, "hz");
        if (n < 1.0 || n > obs::Profiler::kMaxHz || n != std::floor(n)) {
          bad_args("'hz' must be an integer in [1, " +
                   std::to_string(obs::Profiler::kMaxHz) + "]");
        }
        hz = static_cast<int>(n);
      }
      if (obs::Profiler::running()) {
        bad_args("profiler already running (stop it first)");
      }
      obs::Profiler::clear();
      if (!obs::Profiler::start(hz)) {
        throw ProtoError{"internal", "profiler failed to start"};
      }
    } else if (action == "stop") {
      obs::Profiler::stop();
    } else if (action == "dump") {
      const std::size_t limit = arg_limit(args, 200);
      const std::vector<obs::FoldedEntry> snap = obs::Profiler::snapshot();
      Json list = Json::array();
      for (std::size_t i = 0; i < snap.size() && i < limit; ++i) {
        list.push_back(Json::object(
            {{"stack", snap[i].stack}, {"count", static_cast<double>(snap[i].count)}}));
      }
      o.set("stacks", snap.size());
      o.set("entries", std::move(list));
    } else if (action != "status") {
      bad_args("'action' must be start|stop|dump|status");
    }
    o.set("running", obs::Profiler::running());
    o.set("hz", obs::Profiler::hz());
    o.set("samples", static_cast<double>(obs::Profiler::total_samples()));
    o.set("torn", static_cast<double>(obs::Profiler::torn_samples()));
    return o;
  }

  // ---- queries ------------------------------------------------------------
  // Each query below may trigger an analysis; the guard charges the
  // admission gate exactly when it will (cache hits pass free).
  if (cmd == "violations") {
    const std::size_t limit = arg_limit(args, 100);
    const GateGuard gate(gate_, session_, cmd);
    const noise::Result& r = session_.result();
    Json list = Json::array();
    for (std::size_t i = 0; i < r.violations.size() && i < limit; ++i) {
      list.push_back(violation_json(session_.design(), r.violations[i]));
    }
    Json o = Json::object({{"count", r.violations.size()},
                           {"endpoints_checked", r.endpoints_checked},
                           {"noisy_nets", r.noisy_nets},
                           {"epoch", static_cast<double>(r.epoch)}});
    o.set("violations", std::move(list));
    return o;
  }
  if (cmd == "net_noise") {
    const NetId id = session_.require_net(arg_string(args, "net"));
    const GateGuard gate(gate_, session_, cmd);
    const noise::NetNoise& nn = session_.result().net(id);
    return Json::object({{"net", session_.design().net(id).name},
                         {"injected_peak", nn.injected_peak},
                         {"propagated_peak", nn.propagated_peak},
                         {"total_peak", nn.total_peak},
                         {"width", nn.width},
                         {"aggressors", nn.aggressor_count},
                         {"window", window_json(nn.window)}});
  }
  if (cmd == "trace_origin") {
    const NetId id = session_.require_net(arg_string(args, "net"));
    const GateGuard gate(gate_, session_, cmd);
    const noise::NoiseTrace tr = noise::trace_origin(session_.result(), id);
    Json path = Json::array();
    for (const noise::ProvenanceStep& step : tr.path) {
      path.push_back(step_json(session_.design(), step));
    }
    Json aggs = Json::array();
    for (const NetId a : tr.aggressors) {
      aggs.push_back(session_.design().net(a).name);
    }
    Json o = Json::object();
    o.set("path", std::move(path));
    o.set("aggressors", std::move(aggs));
    return o;
  }
  if (cmd == "explain") {
    const NetId id = session_.require_net(arg_string(args, "net"));
    const GateGuard gate(gate_, session_, cmd);
    const noise::Result& r = session_.result();
    Json list = Json::array();
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
      if (r.violations[i].net != id) continue;
      list.push_back(
          provenance_json(session_.design(), r.violations[i], r.provenance[i]));
    }
    Json o = Json::object({{"net", session_.design().net(id).name},
                           {"count", list.items().size()},
                           {"epoch", static_cast<double>(r.epoch)}});
    o.set("violations", std::move(list));
    return o;
  }
  if (cmd == "slack") {
    const std::size_t limit = arg_limit(args, 20);
    const GateGuard gate(gate_, session_, cmd);
    const std::vector<EndpointSlack> slacks = session_.endpoint_slacks();
    Json list = Json::array();
    for (std::size_t i = 0; i < slacks.size() && i < limit; ++i) {
      list.push_back(Json::object({{"endpoint", slacks[i].endpoint},
                                   {"net", slacks[i].net},
                                   {"slack", slacks[i].slack}}));
    }
    Json o = Json::object({{"count", slacks.size()}});
    o.set("endpoints", std::move(list));
    return o;
  }

  // ---- ECO edits ----------------------------------------------------------
  const auto edited = [this] {
    return Json::object({{"epoch", static_cast<double>(session_.epoch())},
                         {"undo_depth", session_.undo_depth()}});
  };
  if (cmd == "set_driver_cell") {
    session_.set_driver_cell(arg_string(args, "inst"), arg_string(args, "cell"));
    return edited();
  }
  if (cmd == "scale_net_parasitics") {
    session_.scale_net_parasitics(arg_string(args, "net"),
                                  arg_number(args, "cap_factor"),
                                  arg_number(args, "res_factor"));
    return edited();
  }
  if (cmd == "set_coupling_cap") {
    session_.set_coupling_cap(arg_string(args, "net_a"), arg_string(args, "net_b"),
                              arg_number(args, "cap"));
    return edited();
  }
  if (cmd == "set_arrival_window") {
    session_.set_arrival_window(arg_string(args, "port"),
                                Interval{arg_number(args, "lo"), arg_number(args, "hi")});
    return edited();
  }
  if (cmd == "set_constraint_group") {
    const Json* nets = require_object(args).find("nets");
    if (nets == nullptr || !nets->is_array() || nets->items().empty()) {
      bad_args("'nets' must be a non-empty array of net names");
    }
    std::vector<std::string> names;
    names.reserve(nets->items().size());
    for (const Json& n : nets->items()) {
      if (!n.is_string()) bad_args("'nets' entries must be strings");
      names.push_back(n.as_string());
    }
    const int gid = session_.set_constraint_group(names);
    Json o = edited();
    o.set("group", gid);
    return o;
  }
  if (cmd == "set_option") {
    session_.set_option(arg_string(args, "name"), arg_string(args, "value"));
    return edited();
  }
  if (cmd == "undo") {
    const bool undone = session_.undo();
    Json o = edited();
    o.set("undone", undone);
    return o;
  }

  // A `cancel` that reaches dispatch found no analysis in flight (the
  // server intercepts mid-analyze cancels out-of-band from the progress
  // sink and answers them there, with "cancelled": true).
  if (cmd == "cancel") return Json::object({{"cancelled", false}});

  // Daemon-only: subscribe/unsubscribe this connection to periodic
  // {"event":"stats",...} lines (the handler owns the streamer thread).
  if (cmd == "watch" && watch_) return watch_(args);

  // Daemon-only: begin a graceful drain. The handler (installed by the
  // daemon) flips the drain flag; this response still goes out, then the
  // connection winds down like any other.
  if (cmd == "shutdown" && shutdown_) return shutdown_();

  throw ProtoError{"unknown_cmd", "unknown command '" + cmd + "'"};
}

std::string Protocol::handle_line(std::string_view line) {
  requests_.add();
  const std::uint64_t req_id = reqobs_ != nullptr ? reqobs_->next_id() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  // Folded-profile baseline for the one-shot slow-request capture: only
  // taken while the sampling profiler runs (a bounded map copy).
  std::vector<obs::FoldedEntry> prof_before;
  const bool prof_capture = reqobs_ != nullptr && obs::Profiler::running();
  if (prof_capture) prof_before = obs::Profiler::snapshot();
  // Analysis-count delta tells whether this request triggered an analysis;
  // if so its phase breakdown is attached to any slow-log entry.
  const std::uint64_t analyses_before = session_.analyses();
  // Latency attribution: starts invalid, becomes the command name once the
  // envelope resolves one. unknown_cmd reverts to invalid below, so metric
  // cardinality stays bounded by the real command set.
  std::string cmd_name = RequestContext::kInvalidCommand;
  Json id;  // null until the request supplies one
  std::string code;
  std::string message;
  Json detail;  // extra error keys (overloaded's retry_after_ms)
  std::string response;
  try {
    if (line.size() > kMaxLineBytes) {
      throw ProtoError{"bad_request",
                       "request line exceeds " + std::to_string(kMaxLineBytes) +
                           " bytes"};
    }
    std::string parse_err;
    const std::optional<Json> req = json_parse(line, &parse_err);
    if (!req) throw ProtoError{"parse_error", parse_err};
    if (!req->is_object()) {
      throw ProtoError{"bad_request", "request must be a JSON object"};
    }
    if (const Json* rid = req->find("id")) {
      if (!rid->is_number() && !rid->is_string() && !rid->is_null()) {
        throw ProtoError{"bad_request", "'id' must be a number or string"};
      }
      id = *rid;
    }
    const Json* cmd = req->find("cmd");
    if (cmd == nullptr || !cmd->is_string()) {
      throw ProtoError{"bad_request", "missing string field 'cmd'"};
    }
    cmd_name = cmd->as_string();
    // The request span encloses dispatch — and with it any analysis the
    // command triggers on this thread, so phase spans nest inside it (and
    // the profiler's samples attribute to this request's stack).
    // Daemon spans carry "<connection>.<request>" so one trace of many
    // concurrent clients still attributes each request end to end (the
    // same "conn.req" key the slowlog and NW_LOG warnings use).
    std::optional<obs::Span> span;
    if (reqobs_ != nullptr && obs::spans_active()) {
      const std::string req_key =
          caps_.connection_id != 0
              ? std::to_string(caps_.connection_id) + "." + std::to_string(req_id)
              : std::to_string(req_id);
      span.emplace("request " + req_key + ": " + cmd_name,
                   obs::SpanKind::kRequest);
    }
    const Json* args = req->find("args");
    Json data = dispatch(cmd_name, args != nullptr ? *args : Json{});
    Json resp = Json::object();
    resp.set("id", std::move(id));
    resp.set("ok", true);
    resp.set("data", std::move(data));
    response = resp.dump();
  } catch (const ProtoError& e) {
    code = e.code;
    message = e.message;
    detail = e.detail;
  } catch (const NotFound& e) {
    code = "not_found";
    message = e.what();
  } catch (const noise::Cancelled& e) {
    code = "cancelled";
    message = e.what();
  } catch (const std::invalid_argument& e) {
    code = "bad_args";
    message = e.what();
  } catch (const std::exception& e) {
    code = "internal";
    message = e.what();
  }
  if (response.empty()) {
    errors_.add();
    if (code == "unknown_cmd") cmd_name = RequestContext::kInvalidCommand;
    Json err = Json::object({{"code", code}, {"message", message}});
    if (detail.is_object()) {
      for (const auto& [k, v] : detail.members()) err.set(k, v);
    }
    response = Json::object({{"id", std::move(id)}, {"ok", false}, {"error", std::move(err)}})
                   .dump();
  }
  if (reqobs_ != nullptr) {
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    const bool ran_analysis = session_.analyses() != analyses_before;
    std::vector<std::string> prof_lines;
    if (prof_capture && ms >= reqobs_->slow_ms()) {
      for (const obs::FoldedEntry& e :
           obs::folded_delta(prof_before, obs::Profiler::snapshot(),
                             RequestContext::kMaxProfileLines)) {
        prof_lines.push_back(e.stack + " " + std::to_string(e.count));
      }
    }
    reqobs_->observe(req_id, cmd_name, ms, code.empty(),
                     ran_analysis ? &session_.last_phases() : nullptr,
                     std::move(prof_lines));
  }
  return response;
}

}  // namespace nw::session
