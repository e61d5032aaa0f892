// Session-server latency: what an interactive client actually feels.
//
// Four regimes, all on the D2 bus:
//   - a repeated query against an unchanged session (cache-key compare, no
//     analysis work at all),
//   - an ECO edit burst followed by a query, swept over the dirty-set size
//     (the incremental path the protocol rides after every edit),
//   - the same edit->query cycle with refinement enabled, which forces the
//     session onto the full-analysis path — the baseline the incremental
//     numbers are a speedup over,
//   - one JSONL round-trip through an in-process daemon over a unix socket
//     (the serving-stack overhead a networked client pays on top of
//     BM_CachedQuery).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "bench/suite.hpp"
#include "net/daemon.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "session/session.hpp"
#include "session/stats_json.hpp"

namespace {

using namespace nw;

const lib::Library& library() {
  static const lib::Library lib = lib::default_library();
  return lib;
}

session::Session make_session(std::size_t bits, unsigned refine = 0) {
  gen::Generated g = gen::make_bus(library(), bench::bus_config(bits));
  session::SessionConfig cfg;
  cfg.sta = g.sta_options;
  cfg.noise.clock_period = g.sta_options.clock_period;
  cfg.noise.mode = noise::AnalysisMode::kNoiseWindows;
  cfg.noise.refine_iterations = refine;
  return session::Session(std::move(g.design), std::move(g.para), std::move(cfg));
}

/// Steady-state query with nothing pending: one string compare.
void BM_CachedQuery(benchmark::State& state) {
  session::Session s = make_session(static_cast<std::size_t>(state.range(0)));
  (void)s.result();  // pay the first full analysis outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.result().violations.size());
  }
}

/// Edit k nets, then query: STA + incremental noise over the dirty closure.
/// Undos run off the clock so every iteration starts from the same state.
void BM_EditRequery(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  session::Session s = make_session(256);
  (void)s.result();
  for (auto _ : state) {
    for (std::size_t i = 0; i < k; ++i) {
      s.scale_net_parasitics("w" + std::to_string(i * 3), 1.05, 1.0);
    }
    benchmark::DoNotOptimize(s.result().violations.size());
    state.PauseTiming();
    for (std::size_t i = 0; i < k; ++i) s.undo();
    state.ResumeTiming();
  }
  state.counters["incremental"] = static_cast<double>(s.incremental_analyses());
  state.counters["full"] = static_cast<double>(s.full_analyses());
}

/// Same cycle with refinement on: the session must re-run the whole
/// analysis per query. This is the cost incremental invalidation avoids.
void BM_EditRequeryFull(benchmark::State& state) {
  session::Session s = make_session(256, /*refine=*/1);
  (void)s.result();
  for (auto _ : state) {
    s.scale_net_parasitics("w0", 1.05, 1.0);
    benchmark::DoNotOptimize(s.result().violations.size());
    state.PauseTiming();
    s.undo();
    state.ResumeTiming();
  }
  state.counters["full"] = static_cast<double>(s.full_analyses());
}

/// A started daemon serving the D2 bus from its prewarmed seed, listening
/// on a per-process unix socket.
std::unique_ptr<net::Daemon> make_daemon(std::size_t bits) {
  gen::Generated g = gen::make_bus(library(), bench::bus_config(bits));
  net::DaemonConfig cfg;
  cfg.session.sta = g.sta_options;
  cfg.session.noise.clock_period = g.sta_options.clock_period;
  cfg.session.noise.mode = noise::AnalysisMode::kNoiseWindows;
  cfg.progress_events = false;
  cfg.listen = net::parse_endpoint("unix:/tmp/nw_bench_daemon_" +
                                   std::to_string(::getpid()) + ".sock");
  auto d = std::make_unique<net::Daemon>(
      cfg, std::make_shared<const net::Design>(std::move(g.design)),
      std::make_shared<const para::Parasitics>(std::move(g.para)));
  d->start();
  return d;
}

/// The cached query every round-trip sends (the client reads one reply per
/// line, so one id serves them all).
constexpr const char* kQueryLine = "{\"id\":1,\"cmd\":\"violations\"}\n";

/// One JSONL round-trip through the daemon: a cached query answered from
/// the shared seed. The delta over BM_CachedQuery is the serving stack —
/// unix-socket hop, reader→worker queue handoff, JSON encode/decode.
void BM_DaemonRoundTrip(benchmark::State& state) {
  std::unique_ptr<net::Daemon> daemon =
      make_daemon(static_cast<std::size_t>(state.range(0)));
  net::SocketStream client(net::connect_endpoint(daemon->bound_endpoint()));
  std::string line;
  for (auto _ : state) {
    client << kQueryLine << std::flush;
    if (!std::getline(client, line) || line.empty()) {
      state.SkipWithError("daemon closed the connection");
      break;
    }
    benchmark::DoNotOptimize(line.size());
  }
  daemon->stop();
}

BENCHMARK(BM_CachedQuery)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EditRequery)->Arg(1)->Arg(4)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EditRequeryFull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DaemonRoundTrip)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main (mirrors bench_runtime): with NW_STATS_JSON=<path> set, a
// short scripted session (query, edit, re-query, undo, re-query) exports
// its per-session counters in the --stats-json schema.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("NW_STATS_JSON")) {
    session::Session s = make_session(64);
    (void)s.result();
    s.scale_net_parasitics("w1", 1.5, 1.0);
    (void)s.result();
    s.undo();
    (void)s.result();

    // Daemon serving latency rides along in the timing section: mean
    // round-trip of a short cached-query burst through an in-process
    // daemon on a unix socket.
    double roundtrip_ms = 0.0;
    {
      std::unique_ptr<net::Daemon> daemon = make_daemon(64);
      net::SocketStream client(net::connect_endpoint(daemon->bound_endpoint()));
      std::string line;
      constexpr int kRounds = 50;
      double seconds = 0.0;
      {
        const obs::Span span("daemon-roundtrips", obs::SpanKind::kPhase, &seconds);
        for (int i = 0; i < kRounds; ++i) {
          client << kQueryLine << std::flush;
          if (!std::getline(client, line)) break;
        }
      }
      roundtrip_ms = seconds * 1e3 / kRounds;
      daemon->stop();
    }
    obs::MetricsSnapshot snap = s.metrics_snapshot();
    snap.samples.push_back(obs::wall_ms_sample(
        "daemon_roundtrip_ms",
        "mean JSONL round-trip through an in-process daemon (cached query)",
        roundtrip_ms));

    std::ofstream f(path);
    // The session's last analysis supplies the executor utilization the
    // schema-v3 record requires.
    session::Json extra = session::Json::object();
    extra.set("bench", session::bench_record_json());
    extra.set("executor", session::executor_json(s.result()));
    // Suite-case label, not the raw netlist name: bench_history.py
    // qualifies baseline metrics by design, and the session record must
    // not collide with bench_runtime's plain "bus64" record.
    obs::RunMeta meta = s.meta();
    meta.design = "bus64-session";
    session::write_stats_json(f, meta, snap, std::move(extra));
  }
  return 0;
}
