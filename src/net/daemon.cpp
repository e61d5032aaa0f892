#include "net/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <iterator>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/log.hpp"
#include "obs/memtrack.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/tracer.hpp"
#include "session/json.hpp"
#include "session/protocol.hpp"
#include "session/reqobs.hpp"
#include "session/server.hpp"
#include "session/stats_json.hpp"

namespace nw::net {

namespace {

/// Telemetry series, in ring order. Counters stay cumulative (consumers
/// difference them for trends); gauges/quantiles are instantaneous.
constexpr const char* kSeriesNames[] = {
    "queue_depth",     "active",          "accepted",        "handled",
    "shed",            "inflight",        "waiting",         "analyze_ewma_ms",
    "analyze_p50_ms",  "analyze_p95_ms",  "rss_mb",          "session_cache_bytes",
    "journal_bytes",   "tracked_mb",
};

std::vector<std::string> series_names() {
  return {std::begin(kSeriesNames), std::end(kSeriesNames)};
}

/// Position of a series in ring order (std::size(kSeriesNames) if absent).
constexpr std::size_t series_index(std::string_view name) {
  std::size_t i = 0;
  while (i < std::size(kSeriesNames) && kSeriesNames[i] != name) ++i;
  return i;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Sub-windows of the rotating analyze-latency quantile. One rotation per
/// sampler tick, so the horizon is kLatencyWindows x sample_interval
/// (~10 s at the 250 ms default) — "p95 lately", not "p95 since boot".
constexpr std::size_t kLatencyWindows = 40;

std::string overloaded_response(const session::Json& id, const std::string& message,
                                int retry_after_ms) {
  using session::Json;
  return Json::object({{"id", id},
                       {"ok", false},
                       {"error", Json::object({{"code", "overloaded"},
                                               {"message", message},
                                               {"retry_after_ms", retry_after_ms}})}})
      .dump();
}

}  // namespace

/// One live client connection: socket stream, line-serving engine, and the
/// reader/worker thread pair. Owned by the accept thread (conns_).
struct Daemon::Connection {
  Connection(std::uint64_t cid, int fd, int recv_timeout_ms, std::size_t max_queued,
             bool progress_events, session::ServeMeters meters)
      : id(cid),
        stream(fd, recv_timeout_ms),
        engine(stream, max_queued, progress_events, meters) {}

  std::uint64_t id;
  SocketStream stream;
  session::LineEngine engine;
  std::thread reader;
  std::thread worker;
  std::atomic<bool> done{false};

  // `watch` streamer state. Started/stopped only from the worker thread
  // (the dispatching thread) and the worker's teardown, so start/stop
  // never race each other; the mutex/cv just wake the streamer.
  std::thread watcher;
  std::mutex watch_mu;
  std::condition_variable watch_cv;
  bool watch_stop = false;
  int watch_period_ms = 0;
  std::uint64_t watch_seq = 0;
};

Daemon::Daemon(DaemonConfig config, std::shared_ptr<const Design> design,
               std::shared_ptr<const para::Parasitics> parasitics)
    : cfg_(std::move(config)),
      design_(std::move(design)),
      para_(std::move(parasitics)),
      governor_(LoadGovernor::Config{cfg_.analysis_slots, cfg_.max_waiters, 50.0},
                reg_),
      analyze_window_({1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000},
                      kLatencyWindows),
      ring_(series_names(), cfg_.sample_capacity),
      accepted_(reg_.counter(kMetricAccepted, "connections accepted",
                             /*deterministic=*/false)),
      rejected_(reg_.counter(kMetricRejected, "connections rejected at the cap",
                             /*deterministic=*/false)),
      idle_closed_(reg_.counter(kMetricIdleClosed, "connections closed for idleness",
                                /*deterministic=*/false)),
      handled_(reg_.counter(kMetricHandled, "requests answered across connections",
                            /*deterministic=*/false)),
      queue_rejected_(reg_.counter(kMetricQueueRejected,
                                   "requests shed at a full per-connection queue",
                                   /*deterministic=*/false)),
      shed_(reg_.counter(LoadGovernor::kMetricShed, "requests shed with 'overloaded'",
                         /*deterministic=*/false)),
      active_g_(reg_.gauge(kMetricActive, "connections being served now", "",
                           /*deterministic=*/false)),
      queue_depth_g_(reg_.gauge(kMetricQueueDepth,
                                "request lines queued across connections", "",
                                /*deterministic=*/false)),
      prewarm_ms_g_(reg_.gauge(kMetricPrewarmMs, "startup seed analysis wall time",
                               "ms", /*deterministic=*/false)) {
  if (design_ == nullptr || para_ == nullptr) {
    throw std::invalid_argument("Daemon: design/parasitics must not be null");
  }
  if (cfg_.max_connections < 1) cfg_.max_connections = 1;
  if (cfg_.min_watch_period_ms < 1) cfg_.min_watch_period_ms = 1;
  governor_.set_latency_window(&analyze_window_);
  if (cfg_.sample_interval_ms > 0) {
    sampler_ = std::make_unique<obs::Sampler>(
        ring_, [this] { return sample_now(); }, cfg_.sample_interval_ms);
  }
}

Daemon::~Daemon() {
  if (started_) stop();
}

void Daemon::start() {
  if (started_) throw std::logic_error("Daemon::start() called twice");
  listener_.open(cfg_.listen);
  // Prewarm: one full analysis on the shared base, exported as the seed
  // every connection adopts — connect→query is then a cache hit, never a
  // per-connection full analyze.
  double prewarm_s = 0.0;
  {
    const obs::Span span("prewarm", obs::SpanKind::kPhase, &prewarm_s);
    session::Session prewarm(design_, para_, cfg_.session);
    seed_ = prewarm.export_seed();
  }
  prewarm_ms_g_.set(prewarm_s * 1e3);
  started_ = true;
  start_tp_ = std::chrono::steady_clock::now();
  if (sampler_) sampler_->start();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Daemon::stop() {
  request_drain();
  wait();
}

void Daemon::accept_loop() {
  obs::Tracer::set_thread_name("daemon-accept");
  while (!draining()) {
    int fd = -1;
    try {
      fd = listener_.accept(/*timeout_ms=*/100);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "noisewin daemon: accept failed: %s\n", e.what());
      break;
    }
    reap_finished(/*join_all=*/false);
    if (fd < 0) continue;
    if (static_cast<int>(conns_.size()) >= cfg_.max_connections) {
      reject_connection(fd);
      continue;
    }
    accepted_.add();
    active_g_.set(static_cast<double>(active_.fetch_add(1) + 1));
    // Clamped so the ms conversion cannot overflow (~24.8 days at most).
    const int timeout_ms =
        cfg_.idle_timeout_s > 0
            ? std::min(cfg_.idle_timeout_s, std::numeric_limits<int>::max() / 1000) * 1000
            : 0;
    auto conn = std::make_unique<Connection>(
        next_conn_id_++, fd, timeout_ms, cfg_.max_queued, cfg_.progress_events,
        session::ServeMeters{&queue_depth_, &queue_depth_g_, &handled_});
    Connection* c = conn.get();
    c->worker = std::thread([this, c] { serve_connection(*c); });
    c->reader = std::thread([this, c] { reader_loop(*c); });
    conns_.push_back(std::move(conn));
  }
  // Drain: stop listening (unlinks a unix socket), wake every blocked
  // reader via socket shutdown, then let workers finish what is queued.
  listener_.close();
  for (const auto& c : conns_) c->stream.shutdown_both();
  reap_finished(/*join_all=*/true);
  // Sampler stops last so the drain itself lands in the timeseries.
  if (sampler_) sampler_->stop();
}

void Daemon::reader_loop(Connection& conn) {
  obs::Tracer::set_thread_name("conn-" + std::to_string(conn.id) + "-rx");
  obs::set_log_connection(conn.id);
  std::string line;
  while (session::read_request_line(conn.stream, line)) {
    if (conn.engine.push(line)) continue;
    // Queue full: shed here, on the reader, so a client flooding its own
    // queue gets immediate structured backpressure while the worker keeps
    // serving what was admitted.
    queue_rejected_.add();
    shed_.add();
    const std::size_t depth = conn.engine.depth();
    const int retry = static_cast<int>(std::max(
        1.0, std::ceil(governor_.ewma_ms() * static_cast<double>(depth + 1))));
    conn.engine.write_line(overloaded_response(
        session::request_id_of(line),
        "request queue full (" + std::to_string(depth) + " queued, cap " +
            std::to_string(cfg_.max_queued) + ")",
        retry));
  }
  if (conn.stream.timed_out()) idle_closed_.add();
  conn.engine.close();
}

void Daemon::serve_connection(Connection& conn) {
  const std::string name = "conn-" + std::to_string(conn.id);
  obs::Tracer::set_thread_name(name);
  obs::profile_set_thread_name(name);
  obs::set_log_connection(conn.id);
  try {
    session::Session session(design_, para_, cfg_.session);
    if (!session.adopt_seed(seed_)) {
      std::fprintf(stderr, "noisewin daemon: connection %llu could not adopt seed\n",
                   static_cast<unsigned long long>(conn.id));
    }
    session::RequestContext reqobs(session.registry(), cfg_.slow_ms);
    // Correlation + aggregation: slowlog entries carry this connection's
    // id, and latency observations mirror into the daemon registry so the
    // `stats` command sees fleet-wide request_ms_* histograms.
    reqobs.set_connection(conn.id);
    reqobs.set_aggregate(&reg_);
    session::Protocol proto(session, &reqobs);
    session::ServerCaps caps;
    caps.transport = bound_endpoint().kind == Endpoint::Kind::kUnix ? "unix" : "tcp";
    caps.daemon = true;
    caps.connection_id = conn.id;
    caps.max_queued = cfg_.max_queued;
    caps.max_connections = cfg_.max_connections;
    caps.analysis_slots = cfg_.analysis_slots;
    caps.idle_timeout_s = cfg_.idle_timeout_s;
    proto.set_caps(std::move(caps));
    proto.set_gate(&governor_);
    proto.set_shutdown_handler([this] {
      request_drain();
      return session::Json::object({{"draining", true}});
    });
    proto.set_stats_augmenter(
        [this](const session::Json& args) { return stats_sections(args); });
    proto.set_watch_handler([this, &conn](const session::Json& args) {
      return watch_command(conn, args);
    });
    conn.engine.run(session, proto);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "noisewin daemon: connection %llu failed: %s\n",
                 static_cast<unsigned long long>(conn.id), e.what());
  }
  // Teardown order: stop any watch streamer first (it writes to the
  // stream), then wake the reader if the worker died early.
  stop_watch(conn);
  conn.stream.shutdown_both();
  active_g_.set(static_cast<double>(active_.fetch_sub(1) - 1));
  conn.done.store(true, std::memory_order_release);
}

void Daemon::reap_finished(bool join_all) {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = **it;
    if (!join_all && !c.done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    if (c.reader.joinable()) c.reader.join();
    if (c.worker.joinable()) c.worker.join();
    it = conns_.erase(it);
  }
}

void Daemon::reject_connection(int fd) {
  rejected_.add();
  // One structured error line, then close — a client sees why instead of a
  // silent RST. The stream dtor closes the fd.
  SocketStream s(fd);
  const int retry = static_cast<int>(std::max(1.0, std::ceil(governor_.ewma_ms())));
  s << overloaded_response(session::Json{},
                           "connection limit (" + std::to_string(cfg_.max_connections) +
                               ") reached",
                           retry)
    << '\n';
  s.flush();
}

session::Json Daemon::daemon_section() const {
  return session::Json::object({{"accepted", accepted_.value()},
                                {"active", active_.load()},
                                {"rejected", rejected_.value()},
                                {"idle_closed", idle_closed_.value()},
                                {"handled", handled_.value()},
                                {"shed", shed_.value()},
                                {"queue_rejected", queue_rejected_.value()},
                                {"queue_depth", static_cast<double>(queue_depth_.load())},
                                {"analyze_ewma_ms", governor_.ewma_ms()},
                                {"max_connections", cfg_.max_connections},
                                {"analysis_slots", cfg_.analysis_slots},
                                {"max_queued", cfg_.max_queued}});
}

std::string Daemon::stats_section_json() const { return daemon_section().dump(); }

obs::TimeSeriesSnapshot Daemon::timeseries_snapshot(std::size_t last_n) const {
  return ring_.snapshot(last_n);
}

std::vector<double> Daemon::read_series() const {
  // Read-only against serving state: the determinism property (analysis
  // results identical with sampling on/off) depends on it. Tracked-heap
  // series: the session accounts aggregate every live connection's
  // cache/journal footprint; tracked_mb sums all accounts.
  const obs::ResourceSample rss = obs::sample_resources();
  return {static_cast<double>(queue_depth_.load()),
          static_cast<double>(active_.load()),
          static_cast<double>(accepted_.value()),
          static_cast<double>(handled_.value()),
          static_cast<double>(shed_.value()),
          static_cast<double>(governor_.inflight()),
          static_cast<double>(governor_.waiting()),
          governor_.ewma_ms(),
          analyze_window_.quantile(0.5),
          analyze_window_.quantile(0.95),
          static_cast<double>(rss.rss_bytes) / kMiB,
          static_cast<double>(
              obs::MemTracker::account(obs::MemAccountId::kSessionCache).current()),
          static_cast<double>(
              obs::MemTracker::account(obs::MemAccountId::kUndoJournal).current()),
          static_cast<double>(obs::MemTracker::total_current()) / kMiB};
}

std::vector<double> Daemon::sample_now() {
  std::vector<double> v = read_series();
  analyze_window_.rotate();
  if (obs::trace_enabled()) {
    const auto at = [&v](std::string_view name) { return v.at(series_index(name)); };
    obs::Tracer::counter("queue_depth", at("queue_depth"));
    obs::Tracer::counter("active_connections", at("active"));
    obs::Tracer::counter("analyses_inflight", at("inflight"));
    obs::Tracer::counter("tracked_bytes", at("tracked_mb") * kMiB);
    obs::Tracer::counter("session_cache_bytes", at("session_cache_bytes"));
    obs::Tracer::counter("journal_bytes", at("journal_bytes"));
  }
  return v;
}

session::Json Daemon::live_json() const {
  // One fresh read keyed by series name (not recorded into the ring — the
  // sampler owns the ring's cadence; watch events are per-client).
  const std::vector<double> v = read_series();
  session::Json o = session::Json::object();
  for (std::size_t i = 0; i < v.size(); ++i) o.set(kSeriesNames[i], v[i]);
  return o;
}

session::Json Daemon::stats_sections(const session::Json& args) {
  // Last-N samples on demand: {"samples": N} (default 60, clamped to the
  // ring bound; 0 = just the section metadata).
  std::size_t samples = 60;
  if (const session::Json* n = args.find("samples")) {
    if (!n->is_number() || !std::isfinite(n->as_number()) || n->as_number() < 0) {
      throw std::invalid_argument("'samples' must be a non-negative number");
    }
    // Clamp before the cast: a double past size_t's range is undefined to cast.
    samples = static_cast<std::size_t>(
        std::min(n->as_number(), static_cast<double>(ring_.capacity())));
  }
  samples = std::min(samples, ring_.capacity());
  session::Json o = session::Json::object();
  o.set("daemon", daemon_section());
  // snapshot(0) means "everything retained", so the metadata-only reply
  // takes one sample and drops it.
  obs::TimeSeriesSnapshot ts = ring_.snapshot(std::max<std::size_t>(samples, 1));
  if (samples == 0) ts.samples.clear();
  o.set("timeseries", session::timeseries_json(ts));
  // Fleet-wide per-command latency (aggregated request_ms_* histograms
  // mirrored by every connection's RequestContext).
  session::Json latency = session::Json::object();
  const std::string prefix = session::RequestContext::kLatencyPrefix;
  for (const obs::MetricSample& s : reg_.snapshot().samples) {
    if (s.kind != obs::MetricSample::Kind::kHistogram) continue;
    if (s.name.rfind(prefix, 0) != 0) continue;
    latency.set(s.name.substr(prefix.size()),
                session::Json::object({{"count", s.hist.count},
                                       {"p50", obs::histogram_quantile(s.hist, 0.5)},
                                       {"p95", obs::histogram_quantile(s.hist, 0.95)},
                                       {"p99", obs::histogram_quantile(s.hist, 0.99)},
                                       {"max", s.hist.max}}));
  }
  o.set("latency", std::move(latency));
  // Live per-account heap breakdown — the same section shape the stats
  // JSON carries, so nwtop renders identical data online and offline.
  o.set("memory", session::memory_json());
  return o;
}

session::Json Daemon::watch_command(Connection& conn, const session::Json& args) {
  std::string action = "start";
  if (const session::Json* a = args.find("action")) {
    if (!a->is_string()) {
      throw std::invalid_argument("'action' must be a string");
    }
    action = a->as_string();
  }
  int period_ms = 500;
  if (const session::Json* p = args.find("period_ms")) {
    if (!p->is_number() || p->as_number() < 1 || p->as_number() > 60000) {
      throw std::invalid_argument("'period_ms' must be a number in [1, 60000]");
    }
    period_ms = static_cast<int>(p->as_number());
  }
  // Per-connection rate cap: a client asking for a 1 ms firehose gets the
  // daemon's floor instead (reported back, not errored — the client can
  // see what it actually subscribed to).
  period_ms = std::max(period_ms, cfg_.min_watch_period_ms);
  if (action == "start") {
    start_watch(conn, period_ms);
  } else if (action == "stop") {
    stop_watch(conn);
  } else {
    throw std::invalid_argument("'action' must be start|stop");
  }
  return session::Json::object({{"watching", conn.watcher.joinable()},
                                {"period_ms", action == "start" ? period_ms : 0},
                                {"min_period_ms", cfg_.min_watch_period_ms}});
}

void Daemon::start_watch(Connection& conn, int period_ms) {
  stop_watch(conn);  // restart replaces the previous subscription
  conn.watch_stop = false;
  conn.watch_period_ms = period_ms;
  conn.watch_seq = 0;
  conn.watcher = std::thread([this, &conn] { watch_loop(conn); });
}

void Daemon::stop_watch(Connection& conn) {
  if (!conn.watcher.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(conn.watch_mu);
    conn.watch_stop = true;
  }
  conn.watch_cv.notify_all();
  conn.watcher.join();
}

void Daemon::watch_loop(Connection& conn) {
  obs::Tracer::set_thread_name("conn-" + std::to_string(conn.id) + "-watch");
  obs::set_log_connection(conn.id);
  std::unique_lock<std::mutex> lock(conn.watch_mu);
  while (!conn.watch_stop) {
    if (conn.watch_cv.wait_for(lock,
                               std::chrono::milliseconds(conn.watch_period_ms),
                               [&] { return conn.watch_stop; })) {
      return;
    }
    const std::uint64_t seq = conn.watch_seq++;
    lock.unlock();
    const double t_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start_tp_)
                            .count();
    conn.engine.write_line(session::Json::object({{"event", "stats"},
                                                  {"seq", seq},
                                                  {"t_ms", t_ms},
                                                  {"daemon", live_json()}})
                               .dump());
    const bool dead = !conn.stream;  // peer gone: stop streaming quietly
    lock.lock();
    if (dead) return;
  }
}

obs::RunMeta Daemon::meta() const {
  obs::RunMeta m;
  m.design = design_->name();
  m.mode = noise::to_string(cfg_.session.noise.mode);
  m.model = noise::to_string(cfg_.session.noise.model);
  m.options_digest = noise::options_digest(cfg_.session.noise);
  m.build = obs::build_version();
  if (seed_.result) {
    m.threads = seed_.result->run_meta.threads;
    m.iterations = seed_.result->run_meta.iterations;
  } else {
    m.threads = cfg_.session.noise.threads;
    m.iterations = 0;
  }
  return m;
}

std::uint64_t Daemon::connections_accepted() const noexcept {
  return accepted_.value();
}
std::uint64_t Daemon::connections_rejected() const noexcept {
  return rejected_.value();
}
std::uint64_t Daemon::requests_handled() const noexcept { return handled_.value(); }
std::uint64_t Daemon::requests_shed() const noexcept { return shed_.value(); }

}  // namespace nw::net
