// eco-serve: closed-loop ECO clients against an in-process daemon.
//
// Setup generates a seeded 10k-gate logic cloud, writes it to files, reads
// it back, and starts a net::Daemon (DaemonConfig defaults, unix socket,
// telemetry sampler off) that prewarms one full analysis. Three clients,
// one connection each, then repeat a seeded cycle until the run's time is
// up: one edit, `violations`, `explain` of the worst net, `undo`,
// `violations` again. Writes trigger STA plus an incremental analysis;
// the reads are cache hits.
//
// Checks: every response is ok:true, the post-undo `violations` bytes equal
// the pre-edit bytes, and for a seeded sample of cycles the post-edit
// violation list equals a fresh full analysis of the edited state.
//
// The traced run also replays client 0's script on one in-process Protocol
// over a fresh Session, which splits session cost from transport cost.
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "figures.hpp"
#include "inputs.hpp"
#include "library/liberty_io.hpp"
#include "net/daemon.hpp"
#include "netlist/verilog.hpp"
#include "parasitics/spef.hpp"
#include "session/protocol.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace nw;
using session::Json;

constexpr int kClients = 3;

/// The design state every daemon connection and verifier shares.
struct Served {
  std::unique_ptr<lib::Library> library;
  std::shared_ptr<const net::Design> design;
  std::shared_ptr<const para::Parasitics> para;
  session::SessionConfig session;
};

/// Edit targets each ECO command accepts, collected from the design.
struct Targets {
  std::vector<std::pair<std::string, std::string>> coupled;  ///< net pairs with coupling
  std::vector<double> coupled_total;                          ///< their total cap [F]
  std::vector<std::string> nets;                              ///< nets with coupling
  std::vector<std::string> ports;                             ///< data input ports
  std::vector<std::pair<std::string, std::string>> swaps;     ///< instance, other drive
};

Targets collect_targets(const Served& s) {
  Targets t;
  const net::Design& d = *s.design;
  std::map<std::pair<std::size_t, std::size_t>, double> pairs;
  for (const para::CouplingCap& c : s.para->couplings()) {
    const std::size_t a = c.net_a.index();
    const std::size_t b = c.net_b.index();
    pairs[{std::min(a, b), std::max(a, b)}] += c.c;
  }
  std::set<std::size_t> coupled_nets;
  for (const auto& [key, total] : pairs) {
    t.coupled.emplace_back(d.net(NetId{key.first}).name, d.net(NetId{key.second}).name);
    t.coupled_total.push_back(total);
    coupled_nets.insert(key.first);
    coupled_nets.insert(key.second);
  }
  for (const std::size_t n : coupled_nets) t.nets.push_back(d.net(NetId{n}).name);
  for (const PinId p : d.input_ports()) {
    if (d.pin(p).port_name != s.session.sta.clock_port) t.ports.push_back(d.pin(p).port_name);
  }
  const std::map<std::string, std::string> other_drive = {
      {"INV_X1", "INV_X2"}, {"INV_X2", "INV_X4"}, {"BUF_X1", "BUF_X2"}, {"BUF_X2", "BUF_X4"}};
  for (std::size_t i = 0; i < d.instance_count(); ++i) {
    const InstId id{i};
    const auto it = other_drive.find(d.cell_of(id).name);
    if (it != other_drive.end()) t.swaps.emplace_back(d.instance(id).name, it->second);
  }
  if (t.coupled.empty() || t.ports.empty() || t.swaps.empty()) {
    throw std::runtime_error("eco-serve: the generated design offers no edit targets");
  }
  return t;
}

Rng cycle_rng(std::uint64_t seed, int client, std::uint64_t cycle) {
  return Rng(seed * 0x9E3779B97F4A7C15ull ^ (static_cast<std::uint64_t>(client) << 40) ^ cycle);
}

std::string request(const char* id, const char* cmd, Json args = Json::object()) {
  Json o = Json::object();
  o.set("id", id);
  o.set("cmd", cmd);
  o.set("args", std::move(args));
  return o.dump();
}

/// The seeded edit of one client's cycle.
std::string draw_edit(const Targets& t, std::uint64_t seed, int client, std::uint64_t cycle) {
  Rng rng = cycle_rng(seed, client, cycle);
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng.next() % n); };
  const auto factor = [&rng] { return 0.5 + 1.5 * rng.uniform(); };
  Json a = Json::object();
  switch (rng.next() % 4) {
    case 0:
      a.set("net", t.nets[pick(t.nets.size())]);
      a.set("cap_factor", factor());
      a.set("res_factor", factor());
      return request("w", "scale_net_parasitics", std::move(a));
    case 1: {
      const std::size_t i = pick(t.coupled.size());
      a.set("net_a", t.coupled[i].first);
      a.set("net_b", t.coupled[i].second);
      a.set("cap", t.coupled_total[i] * factor());
      return request("w", "set_coupling_cap", std::move(a));
    }
    case 2: {
      const double lo = 1.5e-9 * rng.uniform();
      a.set("port", t.ports[pick(t.ports.size())]);
      a.set("lo", lo);
      a.set("hi", lo + 60e-12);
      return request("w", "set_arrival_window", std::move(a));
    }
    default: {
      const auto& [inst, cell] = t.swaps[pick(t.swaps.size())];
      a.set("inst", inst);
      a.set("cell", cell);
      return request("w", "set_driver_cell", std::move(a));
    }
  }
}

/// Cycles whose post-edit answer is checked against a fresh full analysis.
std::set<std::uint64_t> sampled_cycles(std::uint64_t seed, int client) {
  Rng rng = cycle_rng(seed, client, ~0ull);
  return {0, 1 + rng.next() % 8, 9 + rng.next() % 24};
}

/// Responses open with {"id":...,"ok":...}: look only at that envelope.
bool is_ok(const std::string& resp) {
  return resp.substr(0, 32).find("\"ok\":true") != std::string::npos;
}

/// Name of the worst (lowest-slack) violating net in a `violations`
/// response, or `fallback` when it lists none.
std::string worst_net(const std::string& resp, const std::string& fallback) {
  const std::optional<Json> j = session::json_parse(resp);
  const Json* data = j ? j->find("data") : nullptr;
  const Json* list = data != nullptr ? data->find("violations") : nullptr;
  if (list == nullptr || !list->is_array()) return fallback;
  std::string best = fallback;
  double best_slack = 0.0;
  bool any = false;
  for (const Json& v : list->items()) {
    const Json* slack = v.find("slack");
    const Json* net = v.find("net");
    if (slack == nullptr || net == nullptr || !net->is_string()) continue;
    if (!any || slack->as_number() < best_slack) {
      any = true;
      best_slack = slack->as_number();
      best = net->as_string();
    }
  }
  return best;
}

/// The `data` of a violations response without its epoch (design-state ids
/// are session-local), rendered for byte comparison.
std::string without_epoch(const std::string& resp) {
  const std::optional<Json> j = session::json_parse(resp);
  const Json* data = j ? j->find("data") : nullptr;
  if (data == nullptr || !data->is_object()) return "<no data>";
  Json o = Json::object();
  for (const auto& [k, v] : data->members()) {
    if (k != "epoch") o.set(k, v);
  }
  return o.dump();
}

/// One client's record of a daemon phase.
struct ClientLog {
  std::vector<double> eco_ms;
  std::vector<double> read_ms;
  std::vector<double> undo_read_ms;  ///< the post-undo `violations` alone
  std::uint64_t cycles = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> samples;  ///< edit, post-edit response

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 5) failures.push_back(what);
    }
  }
};

void client_loop(int client, const net::Endpoint& ep, const Targets& targets,
                 const std::string& fallback_net, const Args& args,
                 Clock::time_point deadline, SpanRecorder& rec, ClientLog& log) {
  const auto stream = std::make_unique<net::SocketStream>(net::connect_endpoint(ep));
  // One request, one response; progress event lines are skipped. An empty
  // reply means the connection dropped.
  const auto round_trip = [&stream](const std::string& line) {
    *stream << line << '\n' << std::flush;
    std::string resp;
    while (std::getline(*stream, resp)) {
      if (resp.rfind("{\"event\"", 0) != 0) return resp;
    }
    return std::string();
  };
  const std::string violations = request("v", "violations");
  const std::string requery = request("e", "violations");
  const std::string base = round_trip(violations);
  log.check(is_ok(base), "client " + std::to_string(client) + " first violations: " + base);
  if (base.empty()) return;
  const std::set<std::uint64_t> sampled = sampled_cycles(args.seed, client);
  const std::uint64_t group0 = static_cast<std::uint64_t>(client + 1) << 32;

  for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
    const Scope cycle(rec, "eco.cycle", group0 + k + 1);
    const std::string edit = draw_edit(targets, args.seed, client, k);
    std::string r_edit;
    std::string r_post;
    const auto t0 = Clock::now();
    {
      const Scope span(rec, "net.request");
      r_edit = round_trip(edit);
    }
    {
      const Scope span(rec, "net.request");
      r_post = round_trip(requery);
    }
    log.eco_ms.push_back(seconds_since(t0) * 1e3);
    log.check(is_ok(r_edit), "edit " + edit + " -> " + r_edit);
    log.check(is_ok(r_post), "post-edit violations -> " + r_post.substr(0, 200));
    if (sampled.count(k) != 0) log.samples.emplace_back(edit, r_post);

    const std::string explain = [&] {
      Json a = Json::object();
      a.set("net", worst_net(r_post, fallback_net));
      return request("x", "explain", std::move(a));
    }();
    auto t1 = Clock::now();
    std::string r_explain;
    {
      const Scope span(rec, "net.request");
      r_explain = round_trip(explain);
    }
    log.read_ms.push_back(seconds_since(t1) * 1e3);
    log.check(is_ok(r_explain), "explain -> " + r_explain.substr(0, 200));

    std::string r_undo;
    {
      const Scope span(rec, "net.request");
      r_undo = round_trip(request("u", "undo"));
    }
    log.check(is_ok(r_undo), "undo -> " + r_undo);

    t1 = Clock::now();
    std::string r_again;
    {
      const Scope span(rec, "net.request");
      r_again = round_trip(violations);
    }
    const double ms = seconds_since(t1) * 1e3;
    log.read_ms.push_back(ms);
    log.undo_read_ms.push_back(ms);
    if (args.corrupt && client == 0 && k == 1 && !r_again.empty()) r_again.back() ^= 1;
    log.check(r_again == base, "post-undo violations equal the pre-edit bytes");
    if (r_edit.empty() || r_post.empty() || r_explain.empty() || r_undo.empty() ||
        r_again.empty()) {
      return;  // dropped connection, already counted
    }
    ++log.cycles;
  }
}

/// Thread entry: a failure that escapes the loop (a refused connection,
/// say) is counted, never lost.
void run_client(int client, const net::Endpoint& ep, const Targets& targets,
                const std::string& fallback_net, const Args& args, Clock::time_point deadline,
                SpanRecorder& rec, ClientLog& log) {
  try {
    client_loop(client, ep, targets, fallback_net, args, deadline, rec, log);
  } catch (const std::exception& e) {
    log.check(false, "client " + std::to_string(client) + ": " + e.what());
  }
}

/// Everything one daemon phase measured, merged over the clients.
struct Phase {
  std::vector<double> eco_ms;
  std::vector<double> read_ms;
  std::vector<double> undo_read_ms;
  std::uint64_t cycles = 0;
  double wall_s = 0.0;
  std::vector<std::pair<std::string, std::string>> samples;
};

Phase run_clients(const net::Endpoint& ep, const Targets& targets, const std::string& fallback,
                  const Args& args, double seconds, SpanRecorder& rec, Outcome& out) {
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(run_client, c, std::cref(ep), std::cref(targets), std::cref(fallback),
                         std::cref(args), deadline, std::ref(rec), std::ref(logs[c]));
  }
  for (std::thread& t : threads) t.join();
  Phase p;
  p.wall_s = seconds_since(t0);
  for (ClientLog& log : logs) {
    p.eco_ms.insert(p.eco_ms.end(), log.eco_ms.begin(), log.eco_ms.end());
    p.read_ms.insert(p.read_ms.end(), log.read_ms.begin(), log.read_ms.end());
    p.undo_read_ms.insert(p.undo_read_ms.end(), log.undo_read_ms.begin(), log.undo_read_ms.end());
    p.cycles += log.cycles;
    p.samples.insert(p.samples.end(), log.samples.begin(), log.samples.end());
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (const std::string& f : log.failures) out.notes.push_back("CHECK FAILED: " + f);
  }
  return p;
}

/// Apply `edit` to a session over the shared base, then compare the daemon's
/// post-edit answer with a fresh full analysis of the edited state.
bool verify_sample(const Served& s, const std::string& edit, const std::string& daemon_resp) {
  session::Session edited(s.design, s.para, s.session);
  session::Protocol p(edited);
  if (!is_ok(p.handle_line(edit))) return false;
  session::SessionConfig cfg = s.session;
  cfg.sta = edited.sta_options();
  session::Session fresh(net::Design(edited.design()), para::Parasitics(edited.parasitics()), cfg);
  session::Protocol pf(fresh);
  const std::string want = pf.handle_line(request("e", "violations"));
  return fresh.full_analyses() == 1 && is_ok(want) &&
         without_epoch(want) == without_epoch(daemon_resp);
}

Served read_served(const Inputs& in, SpanRecorder& rec) {
  Served s;
  {
    const Scope span(rec, "library.read");
    std::ifstream f = open_input(in.lib_path);
    s.library = std::make_unique<lib::Library>(lib::read_library(f));
  }
  std::shared_ptr<net::Design> design;
  {
    const Scope span(rec, "netlist.read");
    std::ifstream f = open_input(in.netlist_path);
    design = std::make_shared<net::Design>(net::read_netlist(f, *s.library));
  }
  {
    const Scope span(rec, "parasitics.read");
    std::ifstream f = open_input(in.spef_path);
    s.para = std::make_shared<const para::Parasitics>(para::read_spef(f, *design));
  }
  s.design = std::move(design);
  s.session.sta = in.sta;
  s.session.noise.mode = noise::AnalysisMode::kNoiseWindows;
  s.session.noise.model = noise::GlitchModel::kTwoPi;
  s.session.noise.clock_period = in.sta.clock_period;
  return s;
}

double span_ms(const std::vector<SpanRecord>& spans, const char* name) {
  double ms = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.name == name) ms += (s.end_s - s.start_s) * 1e3;
  }
  return ms;
}

}  // namespace

Outcome run_eco_serve(const Args& args) {
  Outcome out;
  const std::size_t size = args.tiny ? 1000 : 10000;
  SpanRecorder rec;
  rec.enable(args.trace);

  // ---- setup: generate, write, read back, start the daemon (median) ------
  std::vector<double> setup_s;
  Served served;
  std::unique_ptr<net::Daemon> daemon;
  net::DaemonConfig cfg;
  cfg.listen = net::parse_endpoint("unix:" + args.work_dir + "/daemon.sock");
  cfg.sample_interval_ms = 0;  // telemetry sampler off for the measurement
  while (more_setups(args.trace, setup_s)) {
    if (daemon) daemon->stop();
    daemon.reset();
    served = Served{};
    const auto t0 = Clock::now();
    Inputs in;
    {
      const Generated gen = generate(/*bus=*/false, size, args.seed);
      in = write_inputs(gen, args.work_dir, "eco");
    }
    served = read_served(in, rec);
    cfg.session = served.session;
    daemon = std::make_unique<net::Daemon>(cfg, served.design, served.para);
    daemon->start();
    setup_s.push_back(seconds_since(t0));
  }
  const Targets targets = collect_targets(served);
  const net::Endpoint ep = daemon->bound_endpoint();

  // The fallback `explain` target: the worst net of the unedited design.
  std::string fallback;
  {
    session::Session s(served.design, served.para, served.session);
    session::Protocol p(s);
    fallback = worst_net(p.handle_line(request("v", "violations")),
                         served.design->net(NetId{0}).name);
  }

  // ---- the closed loop ---------------------------------------------------
  // Untraced: the whole budget. Traced: an untraced half, then a traced half.
  SpanRecorder client_rec;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const Phase phase = run_clients(ep, targets, fallback, args, budget, client_rec, out);
  Phase traced;
  if (args.trace) {
    client_rec.enable(true);
    traced = run_clients(ep, targets, fallback, args, budget, client_rec, out);
  }
  const std::optional<Json> stats = session::json_parse(daemon->stats_section_json());
  const auto daemon_count = [&stats](const char* key) {
    const Json* v = stats ? stats->find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  const double shed = daemon_count("shed");
  const double queue_rejected = daemon_count("queue_rejected");
  daemon->stop();
  daemon.reset();

  // ---- sampled post-edit answers against fresh full analyses -------------
  for (const auto& [edit, resp] : phase.samples) {
    out.check(verify_sample(served, edit, resp),
              "post-edit violations equal a fresh full analysis after " + edit);
  }

  const double eco_p50 = median(phase.eco_ms);
  out.notes.push_back("seed " + std::to_string(args.seed) + ": " + std::to_string(phase.cycles) +
                      " ECO cycles by " + std::to_string(kClients) + " clients in " +
                      std::to_string(phase.wall_s) + " s; " +
                      std::to_string(phase.samples.size()) + " sampled cycles verified");
  out.notes.push_back("eco_ms p50 = " + std::to_string(eco_p50) + ", p" +
                      std::to_string(tail_percentile(phase.eco_ms.size())) + " = " +
                      std::to_string(tail(phase.eco_ms)) + " (n = " +
                      std::to_string(phase.eco_ms.size()) + ")");
  out.notes.push_back("read_ms p50 = " + std::to_string(median(phase.read_ms)) + ", p" +
                      std::to_string(tail_percentile(phase.read_ms.size())) + " = " +
                      std::to_string(tail(phase.read_ms)) + " (n = " +
                      std::to_string(phase.read_ms.size()) + ")");
  out.notes.push_back("eco_per_s = " + std::to_string(phase.cycles / phase.wall_s) +
                      ", shed = " + std::to_string(shed) +
                      ", queue_rejected = " + std::to_string(queue_rejected));

  if (!args.trace) {
    out.set("setup_s", median(setup_s));
    out.set("op_ms_p50", eco_p50);
    out.set("ops_per_s", static_cast<double>(phase.cycles) / phase.wall_s);
    return out;
  }

  // ---- traced run: per-layer numbers ------------------------------------
  out.set("eco_ms_p50", eco_p50);
  out.set("eco_ms_p90", tail(phase.eco_ms));
  out.set("read_ms_p50", median(phase.read_ms));
  out.set("read_ms_p90", tail(phase.read_ms));
  out.set("eco_per_s", static_cast<double>(phase.cycles) / phase.wall_s);
  out.set("trace.overhead_frac", (median(traced.eco_ms) - eco_p50) / eco_p50);
  out.set("net.shed", shed);
  out.set("net.queue_rejected", queue_rejected);
  const std::vector<SpanRecord> setup_spans = rec.spans();
  out.set("library.read_ms", span_ms(setup_spans, "library.read"));
  out.set("netlist.read_ms", span_ms(setup_spans, "netlist.read"));
  out.set("parasitics.read_ms", span_ms(setup_spans, "parasitics.read"));

  // In-process replay of client 0's script on one Protocol over a fresh
  // Session: the same edits and reads without the socket.
  session::Session s(served.design, served.para, served.session);
  session::Protocol p(s);
  const std::string violations = request("v", "violations");
  const std::string requery = request("e", "violations");
  const std::string base = p.handle_line(violations);
  out.check(is_ok(base), "replay: first violations");
  const noise::Result base_result = *s.last_result();
  sta::Options sta_opt = s.sta_options();
  sta_opt.clock_period = s.noise_options().clock_period;
  const sta::Result base_timing = sta::run(s.design(), s.parasitics(), sta_opt);

  Series series;
  // handle_line under a span; its time is recorded as `metric` when given.
  const auto timed = [&](const std::string& line, const char* metric) {
    const Scope span(rec, "session.handle_line");
    const auto t0 = Clock::now();
    std::string r = p.handle_line(line);
    if (metric != nullptr) series.add(metric, seconds_since(t0) * 1e3);
    return r;
  };
  const auto replay_t0 = Clock::now();
  for (std::uint64_t k = 0; k < 5 || (k < 60 && seconds_since(replay_t0) < args.seconds / 2);
       ++k) {
    const Scope cycle(rec, "replay.cycle", (std::uint64_t{1} << 48) + k + 1);
    out.check(is_ok(timed(draw_edit(targets, args.seed, 0, k), "session.edit_ms")),
              "replay: edit");
    const std::string post = timed(requery, "session.requery_ms");
    out.check(is_ok(post), "replay: post-edit violations");
    {
      sta::Options o = s.sta_options();
      o.clock_period = s.noise_options().clock_period;
      const Scope span(rec, "sta.run");
      const auto t0 = Clock::now();
      (void)sta::run(s.design(), s.parasitics(), o);
      series.add("session.sta_ms", seconds_since(t0) * 1e3);
    }
    const session::Session::AnalysisPhases& ph = s.last_phases();
    const double phases_ms =
        (ph.context_s + ph.estimate_s + ph.propagate_s + ph.endpoints_s) * 1e3;
    const noise::Telemetry& t = s.last_result()->telemetry;
    series.add("session.analyze_ms", phases_ms);
    series.add("noise.analyze_ms", t.total_seconds * 1e3);
    series.add("noise.context_ms", ph.context_s * 1e3);
    series.add("noise.estimate_ms", ph.estimate_s * 1e3);
    series.add("noise.propagate_ms", ph.propagate_s * 1e3);
    series.add("noise.check_ms", ph.endpoints_s * 1e3);
    series.add("noise.unattributed_ms", t.total_seconds * 1e3 - phases_ms);
    const double est = static_cast<double>(t.victims_estimated);
    const double reused = static_cast<double>(t.victims_reused);
    series.add("session.reuse_frac", est + reused > 0.0 ? reused / (est + reused) : 0.0);
    Json a = Json::object();
    a.set("net", worst_net(post, fallback));
    out.check(is_ok(timed(request("x", "explain", std::move(a)), nullptr)), "replay: explain");
    out.check(is_ok(timed(request("u", "undo"), nullptr)), "replay: undo");
    out.check(timed(violations, "undo_read_ms") == base, "replay: post-undo bytes");
  }
  for (const char* m : {"session.edit_ms", "session.requery_ms", "session.sta_ms",
                        "session.analyze_ms", "session.reuse_frac", "noise.analyze_ms",
                        "noise.context_ms", "noise.estimate_ms", "noise.propagate_ms",
                        "noise.check_ms", "noise.unattributed_ms"}) {
    out.set(m, series.median_of(m));
  }
  const double hits = static_cast<double>(s.cache_hits());
  const double misses = static_cast<double>(s.cache_misses());
  out.set("session.cache_hit_frac", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  out.set("session.full_analyses", static_cast<double>(s.full_analyses()));
  const double inproc_read_ms = series.median_of("undo_read_ms");
  out.set("net.rtt_overhead_ms", median(phase.undo_read_ms) - inproc_read_ms);
  out.notes.push_back("post-undo violations: daemon round trip p50 " +
                      std::to_string(median(phase.undo_read_ms)) + " ms, in-process p50 " +
                      std::to_string(inproc_read_ms) + " ms");

  // Layer figures of the served design: STA on each edited state, the
  // incremental analyses above, and exact counts of the base analysis.
  out.set("sta.run_ms", series.median_of("session.sta_ms"));
  out.set("sta.passes", static_cast<double>(base_timing.passes));
  out.set("sta.bytes", static_cast<double>(sta::memory_bytes(base_timing)));
  out.set("noise.victims_estimated",
          static_cast<double>(base_result.telemetry.victims_estimated));
  out.set("noise.aggressor_pairs", static_cast<double>(base_result.telemetry.aggressor_pairs));
  out.set("noise.violations", static_cast<double>(base_result.violations.size()));
  out.set("noise.result_bytes", static_cast<double>(noise::memory_bytes(base_result)));
  out.set("netlist.bytes", static_cast<double>(served.design->memory_bytes()));
  out.set("parasitics.bytes", static_cast<double>(served.para->memory_bytes()));
  out.set("executor.idle_frac", idle_frac(base_result.executor));
  out.set("executor.estimate_imbalance", estimate_imbalance(base_result.executor));
  const RenderTimes render = time_renderers(s.design(), s.noise_options(), base_result);
  out.set("report.text_ms", render.text_ms);
  out.set("report.html_ms", render.html_ms);
  out.set("report.explain_ms", render.explain_ms);
  if (!args.spans_path.empty()) {
    // Setup and replay spans, then the traced clients' spans.
    rec.write(args.spans_path);
    client_rec.write(args.spans_path + ".clients");
  }
  return out;
}

}  // namespace perfbench
