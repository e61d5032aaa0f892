#include "session/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "noise/progress.hpp"
#include "noise/report_writer.hpp"
#include "obs/memtrack.hpp"
#include "session/protocol.hpp"
#include "util/strings.hpp"

namespace nw::session {

namespace {

bool is_cancel_line(const std::string& line) {
  if (line.find("cancel") == std::string::npos) return false;  // cheap reject
  const std::optional<Json> req = json_parse(line);
  if (!req || !req->is_object()) return false;
  const Json* cmd = req->find("cmd");
  return cmd != nullptr && cmd->is_string() && cmd->as_string() == "cancel";
}

}  // namespace

bool read_request_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) return true;
  }
  return false;
}

Json request_id_of(std::string_view line) {
  Json id;
  if (const std::optional<Json> req = json_parse(line)) {
    if (req->is_object()) {
      if (const Json* rid = req->find("id")) id = *rid;
    }
  }
  return id;
}

LineEngine::LineEngine(std::ostream& out, std::size_t max_queued,
                       bool progress_events, ServeMeters meters)
    : out_(out), max_queued_(max_queued), progress_events_(progress_events),
      meters_(meters) {}

LineEngine::~LineEngine() {
  // Lines still queued at teardown (a drain swallowed them) release here.
  obs::MemTracker::account(obs::MemAccountId::kDaemonQueues).release(charged_);
}

bool LineEngine::push(std::string& line) {
  const bool force = is_cancel_line(line);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return true;  // draining: swallow silently
    if (!force && max_queued_ > 0 && lines_.size() >= max_queued_) return false;
    account(+1, line.size());
    lines_.push_back(std::move(line));
  }
  cv_.notify_one();
  return true;
}

void LineEngine::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_one();
}

std::size_t LineEngine::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

bool LineEngine::pop(std::string& line) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !lines_.empty() || closed_; });
  if (lines_.empty()) return false;
  line = std::move(lines_.front());
  lines_.pop_front();
  account(-1, line.size());
  return true;
}

std::optional<std::string> LineEngine::take_cancel() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = lines_.begin(); it != lines_.end(); ++it) {
    if (!is_cancel_line(*it)) continue;
    std::string line = std::move(*it);
    lines_.erase(it);
    account(-1, line.size());
    return line;
  }
  return std::nullopt;
}

void LineEngine::account(int delta, std::size_t bytes) {
  obs::MemAccount& queued = obs::MemTracker::account(obs::MemAccountId::kDaemonQueues);
  if (delta > 0) {
    queued.charge(bytes);
    charged_ += bytes;
  } else {
    queued.release(bytes);
    charged_ -= bytes;
  }
  if (meters_.queue_depth != nullptr) {
    const std::int64_t now = meters_.queue_depth->fetch_add(delta) + delta;
    if (meters_.queue_depth_gauge != nullptr) {
      meters_.queue_depth_gauge->set(static_cast<double>(now));
    }
  }
}

std::size_t LineEngine::run(Session& session, Protocol& proto) {
  session.set_progress_sink(this);
  std::size_t handled = 0;
  std::string line;
  while (pop(line)) {
    // Re-arm: a consumed cancel aborts only the analysis it was taken
    // against, not every later one.
    cancelled_ = false;
    write_line(proto.handle_line(line));
    ++handled;
    if (meters_.handled != nullptr) meters_.handled->add();
  }
  session.set_progress_sink(nullptr);
  return handled;
}

void LineEngine::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(write_mu_);
  out_ << line << '\n';
  out_.flush();
}

void LineEngine::on_progress(const noise::Progress& p) {
  if (!progress_events_) return;
  Json o = Json::object();
  o.set("event", "progress");
  o.set("phase", p.phase);
  o.set("iteration", p.iteration);
  o.set("completed", p.completed);
  o.set("total", p.total);
  o.set("level", p.level);
  o.set("elapsed_ms", p.phase_elapsed_s * 1e3);
  o.set("eta_ms", p.eta_s * 1e3);
  write_line(o.dump());
}

bool LineEngine::cancel_requested() {
  if (cancelled_) return true;
  const std::optional<std::string> line = take_cancel();
  if (!line) return false;
  // Answer the cancel out-of-band, echoing its id; the analyzing request in
  // flight gets its own "cancelled" error response from the protocol.
  Json data = Json::object();
  data.set("cancelled", true);
  Json resp = Json::object();
  resp.set("id", request_id_of(*line));
  resp.set("ok", true);
  resp.set("data", std::move(data));
  write_line(resp.dump());
  cancelled_ = true;
  return true;
}

std::size_t serve(Session& session, std::istream& in, std::ostream& out,
                  RequestContext* reqobs, bool progress_events) {
  Protocol proto(session, reqobs);
  LineEngine engine(out, /*max_queued=*/0, progress_events);
  // Joined on scope exit, before `engine` is destroyed.
  const std::jthread reader([&in, &engine] {
    std::string line;
    while (read_request_line(in, line)) engine.push(line);
    engine.close();
  });
  return engine.run(session, proto);
}

namespace {

constexpr const char* kShellHelp =
    "commands:\n"
    "  violations [n]              worst n violations (default 10)\n"
    "  slack [n]                   worst n endpoint noise slacks (default 10)\n"
    "  noise <net>                 noise summary of a net\n"
    "  trace <net>                 trace a net's worst glitch to its origin\n"
    "  explain <net>               provenance of the net's violations\n"
    "  cell <inst> <cell>          swap an instance onto another cell\n"
    "  scale <net> <capf> <resf>   scale a net's ground caps / resistances\n"
    "  couple <a> <b> <cap>        set total coupling cap between two nets [F]\n"
    "  arrival <port> <lo> <hi>    override an input arrival window [s]\n"
    "  group <net> [net...]        declare a mutual-exclusion group\n"
    "  set <option> <value>        mode|model|threads|refine|period\n"
    "  undo                        revert the most recent edit\n"
    "  stats                       session counters\n"
    "  help                        this text\n"
    "  quit                        leave\n";

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

double num_arg(const std::vector<std::string>& toks, std::size_t i) {
  if (i >= toks.size()) throw std::invalid_argument("missing numeric argument");
  try {
    return parse_double(toks[i]);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("bad number '" + toks[i] + "'");
  }
}

std::size_t count_arg(const std::vector<std::string>& toks, std::size_t i,
                      std::size_t fallback) {
  if (i >= toks.size()) return fallback;
  const double v = num_arg(toks, i);
  if (!std::isfinite(v) || v < 0) {
    throw std::invalid_argument("count must be a non-negative number");
  }
  return static_cast<std::size_t>(std::min(v, kMaxListLimit));
}

const std::string& str_arg(const std::vector<std::string>& toks, std::size_t i,
                           const char* what) {
  if (i >= toks.size()) {
    throw std::invalid_argument(std::string("missing argument: ") + what);
  }
  return toks[i];
}

std::string mv(double volts) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f mV", volts * 1e3);
  return buf;
}

std::string ps(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f ps", seconds * 1e12);
  return buf;
}

void run_command(Session& s, const std::vector<std::string>& toks, std::ostream& out) {
  const std::string& cmd = toks[0];
  if (cmd == "help") {
    out << kShellHelp;
  } else if (cmd == "violations") {
    const std::size_t limit = count_arg(toks, 1, 10);
    const noise::Result& r = s.result();
    out << r.violations.size() << " violation(s), " << r.endpoints_checked
        << " endpoints checked [epoch " << r.epoch << "]\n";
    for (std::size_t i = 0; i < r.violations.size() && i < limit; ++i) {
      const noise::Violation& v = r.violations[i];
      out << "  " << s.design().pin_name(v.endpoint) << " (net "
          << s.design().net(v.net).name << "): peak " << mv(v.peak) << " > "
          << mv(v.threshold) << ", width " << ps(v.width) << "\n";
    }
  } else if (cmd == "slack") {
    const std::size_t limit = count_arg(toks, 1, 10);
    const auto slacks = s.endpoint_slacks();
    for (std::size_t i = 0; i < slacks.size() && i < limit; ++i) {
      out << "  " << slacks[i].endpoint << " (net " << slacks[i].net << "): "
          << mv(slacks[i].slack) << "\n";
    }
  } else if (cmd == "noise") {
    const NetId id = s.require_net(str_arg(toks, 1, "net name"));
    const noise::NetNoise& nn = s.result().net(id);
    out << "net " << s.design().net(id).name << ": total " << mv(nn.total_peak)
        << " (injected " << mv(nn.injected_peak) << ", propagated "
        << mv(nn.propagated_peak) << "), width " << ps(nn.width) << ", "
        << nn.aggressor_count << " aggressor(s)\n";
  } else if (cmd == "trace") {
    const NetId id = s.require_net(str_arg(toks, 1, "net name"));
    out << noise::trace_string(s.design(), noise::trace_origin(s.result(), id)) << "\n";
  } else if (cmd == "explain") {
    const NetId id = s.require_net(str_arg(toks, 1, "net name"));
    out << noise::explain_string(s.design(), s.noise_options(), s.result(), id);
  } else if (cmd == "cell") {
    s.set_driver_cell(str_arg(toks, 1, "instance"), str_arg(toks, 2, "cell"));
    out << "ok [epoch " << s.epoch() << "]\n";
  } else if (cmd == "scale") {
    s.scale_net_parasitics(str_arg(toks, 1, "net"), num_arg(toks, 2), num_arg(toks, 3));
    out << "ok [epoch " << s.epoch() << "]\n";
  } else if (cmd == "couple") {
    s.set_coupling_cap(str_arg(toks, 1, "net"), str_arg(toks, 2, "net"),
                       num_arg(toks, 3));
    out << "ok [epoch " << s.epoch() << "]\n";
  } else if (cmd == "arrival") {
    s.set_arrival_window(str_arg(toks, 1, "port"),
                         Interval{num_arg(toks, 2), num_arg(toks, 3)});
    out << "ok [epoch " << s.epoch() << "]\n";
  } else if (cmd == "group") {
    const std::vector<std::string> nets(toks.begin() + 1, toks.end());
    const int gid = s.set_constraint_group(nets);
    out << "group " << gid << "\n";
  } else if (cmd == "set") {
    s.set_option(str_arg(toks, 1, "option"), str_arg(toks, 2, "value"));
    out << "ok\n";
  } else if (cmd == "undo") {
    out << (s.undo() ? "undone" : "nothing to undo") << " [epoch " << s.epoch()
        << "]\n";
  } else if (cmd == "stats") {
    out << "epoch " << s.epoch() << ", undo depth " << s.undo_depth() << ", full "
        << s.full_analyses() << ", incremental " << s.incremental_analyses()
        << ", cache " << s.cache_hits() << " hit / " << s.cache_misses()
        << " miss\n";
  } else {
    out << "unknown command '" << cmd << "' (try: help)\n";
  }
}

}  // namespace

std::size_t shell(Session& session, std::istream& in, std::ostream& out) {
  std::size_t handled = 0;
  std::string line;
  out << "noisewin session on '" << session.design().name() << "' ("
      << session.design().net_count() << " nets). Type 'help'.\n";
  for (out << "noisewin> " << std::flush; std::getline(in, line);
       out << "noisewin> " << std::flush) {
    const std::vector<std::string> toks = tokenize(line);
    if (toks.empty()) continue;
    if (toks[0] == "quit" || toks[0] == "exit") break;
    ++handled;
    try {
      run_command(session, toks, out);
    } catch (const std::exception& e) {
      out << "error: " << e.what() << "\n";
    }
  }
  out << "\n";
  return handled;
}

}  // namespace nw::session
