// Request-scoped observability: the slow-request log's bound and eviction
// order, RequestContext's latency histograms and threshold behaviour, and
// the protocol integration — hello feature report, the slowlog command,
// request spans on the trace, the profile command and the folded capture on
// slow requests, and cardinality bounding of garbage input.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gen/bus.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "session/json.hpp"
#include "session/protocol.hpp"
#include "session/reqobs.hpp"
#include "session/session.hpp"

namespace nw::session {
namespace {

Session make_session() {
  static const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 6;
  cfg.segments = 2;
  gen::Generated g = gen::make_bus(library, cfg);
  SessionConfig sc;
  sc.sta = g.sta_options;
  sc.noise.clock_period = g.sta_options.clock_period;
  return Session(std::move(g.design), std::move(g.para), std::move(sc));
}

Json parse_ok(const std::string& line) {
  std::string err;
  const auto j = json_parse(line, &err);
  EXPECT_TRUE(j.has_value()) << err << " in: " << line;
  if (!j.has_value()) return Json{};
  EXPECT_TRUE(j->find("ok")->as_bool()) << line;
  return *j->find("data");
}

// ---- SlowLog ----------------------------------------------------------------

TEST(SlowLog, BoundedFifoEvictsOldestFirst) {
  SlowLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  EXPECT_EQ(log.total_recorded(), 0u);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    SlowRequest r;
    r.id = id;
    r.cmd = "cmd" + std::to_string(id);
    r.ms = static_cast<double>(id);
    log.record(std::move(r));
  }
  EXPECT_EQ(log.total_recorded(), 5u);
  const std::vector<SlowRequest> entries = log.entries();
  ASSERT_EQ(entries.size(), 3u);  // 1 and 2 fell off
  EXPECT_EQ(entries.front().id, 3u);
  EXPECT_EQ(entries.back().id, 5u);
  EXPECT_EQ(entries.back().cmd, "cmd5");
}

// ---- RequestContext ---------------------------------------------------------

TEST(RequestContext, IdsAreMonotonicFromOne) {
  obs::Registry reg;
  RequestContext ctx(reg);
  EXPECT_EQ(ctx.next_id(), 1u);
  EXPECT_EQ(ctx.next_id(), 2u);
  EXPECT_EQ(ctx.next_id(), 3u);
}

TEST(RequestContext, ObserveFeedsHistogramAndThresholdsSlowLog) {
  obs::Registry reg;
  RequestContext ctx(reg, /*slow_ms=*/10.0);
  ctx.observe(1, "hello", 0.5, true);    // fast: histogram only
  ctx.observe(2, "stats", 25.0, true);   // slow
  ctx.observe(3, "hello", 10.0, false);  // exactly at threshold: slow

  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricSample* hello = snap.find("request_ms_hello");
  ASSERT_NE(hello, nullptr);
  EXPECT_EQ(hello->hist.count, 2u);
  EXPECT_DOUBLE_EQ(hello->hist.min, 0.5);
  EXPECT_DOUBLE_EQ(hello->hist.max, 10.0);
  // Latency is wall time: it must never pollute the deterministic sections.
  EXPECT_FALSE(hello->deterministic);
  ASSERT_NE(snap.find("request_ms_stats"), nullptr);
  EXPECT_EQ(snap.find("request_ms_stats")->hist.count, 1u);

  const Json j = ctx.slowlog_json();
  EXPECT_DOUBLE_EQ(j.find("threshold_ms")->as_number(), 10.0);
  EXPECT_DOUBLE_EQ(j.find("capacity")->as_number(),
                   static_cast<double>(RequestContext::kSlowLogCapacity));
  EXPECT_DOUBLE_EQ(j.find("recorded")->as_number(), 2.0);
  ASSERT_EQ(j.find("entries")->items().size(), 2u);
  const Json& first = j.find("entries")->items()[0];
  EXPECT_DOUBLE_EQ(first.find("id")->as_number(), 2.0);
  EXPECT_EQ(first.find("cmd")->as_string(), "stats");
  EXPECT_TRUE(first.find("ok")->as_bool());
  const Json& second = j.find("entries")->items()[1];
  EXPECT_DOUBLE_EQ(second.find("id")->as_number(), 3.0);
  EXPECT_FALSE(second.find("ok")->as_bool());

  // Past the capacity the log keeps the newest entries, oldest first.
  const std::uint64_t extra = RequestContext::kSlowLogCapacity + 5;
  for (std::uint64_t id = 4; id < 4 + extra; ++id) ctx.observe(id, "stats", 50.0, true);
  const Json after = ctx.slowlog_json();
  const std::vector<Json>& kept = after.find("entries")->items();
  ASSERT_EQ(kept.size(), RequestContext::kSlowLogCapacity);
  EXPECT_DOUBLE_EQ(kept.front().find("id")->as_number(),
                   static_cast<double>(4 + extra - RequestContext::kSlowLogCapacity));
  EXPECT_DOUBLE_EQ(kept.back().find("id")->as_number(), static_cast<double>(3 + extra));
  EXPECT_DOUBLE_EQ(after.find("recorded")->as_number(), static_cast<double>(2 + extra));
}

// ---- protocol integration ---------------------------------------------------

TEST(RequestObs, HelloReportsServerFeatures) {
  Session s = make_session();
  Protocol p(s);
  const Json hello = parse_ok(p.handle_line("{\"id\":1,\"cmd\":\"hello\"}"));
  ASSERT_NE(hello.find("version"), nullptr);
  EXPECT_EQ(hello.find("version")->as_string(), obs::build_version());
  ASSERT_NE(hello.find("build"), nullptr);
  EXPECT_EQ(hello.find("build")->as_string(), obs::build_type());
  ASSERT_NE(hello.find("stats_schema"), nullptr);
  EXPECT_EQ(hello.find("stats_schema")->as_number(),
            static_cast<double>(obs::kStatsSchemaVersion));
}

TEST(RequestObs, SlowlogCommandDisabledWithoutContext) {
  Session s = make_session();
  Protocol p(s);  // no RequestContext wired in
  const Json data = parse_ok(p.handle_line("{\"id\":1,\"cmd\":\"slowlog\"}"));
  EXPECT_FALSE(data.find("enabled")->as_bool());
  EXPECT_TRUE(data.find("entries")->items().empty());
}

TEST(RequestObs, SlowlogCommandExportsOverThresholdRequests) {
  Session s = make_session();
  // Threshold 0: every request, including the slowlog query itself once it
  // completes, counts as slow.
  RequestContext ctx(s.registry(), /*slow_ms=*/0.0);
  Protocol p(s, &ctx);
  (void)parse_ok(p.handle_line("{\"id\":1,\"cmd\":\"hello\"}"));
  (void)parse_ok(p.handle_line("{\"id\":2,\"cmd\":\"violations\"}"));
  const Json data = parse_ok(p.handle_line("{\"id\":3,\"cmd\":\"slowlog\"}"));
  EXPECT_TRUE(data.find("enabled")->as_bool());
  EXPECT_DOUBLE_EQ(data.find("recorded")->as_number(), 2.0);
  const auto& entries = data.find("entries")->items();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_DOUBLE_EQ(entries[0].find("id")->as_number(), 1.0);
  EXPECT_EQ(entries[0].find("cmd")->as_string(), "hello");
  EXPECT_EQ(entries[1].find("cmd")->as_string(), "violations");
}

TEST(RequestObs, SlowlogEntriesCarryPhaseBreakdownForAnalyzingRequests) {
  Session s = make_session();
  RequestContext ctx(s.registry(), /*slow_ms=*/0.0);
  Protocol p(s, &ctx);
  // Request 1 triggers the full analysis; request 2 is served from state.
  (void)parse_ok(p.handle_line("{\"id\":1,\"cmd\":\"violations\"}"));
  (void)parse_ok(p.handle_line("{\"id\":2,\"cmd\":\"hello\"}"));
  const Json data = parse_ok(p.handle_line("{\"id\":3,\"cmd\":\"slowlog\"}"));
  const auto& entries = data.find("entries")->items();
  ASSERT_EQ(entries.size(), 2u);
  // The analyzing request carries the per-phase wall-time breakdown...
  const Json* phases = entries[0].find("phases");
  ASSERT_NE(phases, nullptr);
  for (const char* key :
       {"context_ms", "estimate_ms", "propagate_ms", "endpoints_ms"}) {
    ASSERT_NE(phases->find(key), nullptr) << key;
    EXPECT_GE(phases->find(key)->as_number(), 0.0) << key;
  }
  // ...and the non-analyzing one does not.
  EXPECT_EQ(entries[1].find("phases"), nullptr);
}

TEST(RequestObs, GarbageRequestsAttributeToInvalidCommand) {
  Session s = make_session();
  RequestContext ctx(s.registry(), /*slow_ms=*/1e9);
  Protocol p(s, &ctx);
  (void)p.handle_line("not json");                          // parse_error
  (void)p.handle_line("{\"cmd\":\"no_such_cmd_ever\"}");    // unknown_cmd
  (void)p.handle_line("{\"cmd\":5}");                       // bad_request
  const obs::MetricsSnapshot snap = s.metrics_snapshot();
  const obs::MetricSample* invalid =
      snap.find(std::string(RequestContext::kLatencyPrefix) +
                RequestContext::kInvalidCommand);
  ASSERT_NE(invalid, nullptr);
  EXPECT_EQ(invalid->hist.count, 3u);
  // The hostile command name must not have minted its own histogram.
  EXPECT_EQ(snap.find("request_ms_no_such_cmd_ever"), nullptr);
}

TEST(RequestObs, RequestSpansWrapCommandsOnTheTrace) {
  Session s = make_session();
  RequestContext ctx(s.registry());
  Protocol p(s, &ctx);
  obs::Tracer::clear();
  obs::Tracer::enable();
  (void)p.handle_line("{\"id\":1,\"cmd\":\"hello\"}");
  (void)p.handle_line("{\"id\":2,\"cmd\":\"violations\"}");
  obs::Tracer::disable();
  const std::vector<obs::TraceEvent> events = obs::Tracer::events();
  obs::Tracer::clear();

  std::vector<std::string> requests;
  for (const auto& e : events) {
    if (e.kind == obs::SpanKind::kRequest) requests.push_back(e.name);
  }
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0], "request 1: hello");
  EXPECT_EQ(requests[1], "request 2: violations");
  // The analysis work of request 2 was traced inside the request span.
  const auto named = [&](const char* name) {
    for (const auto& e : events) {
      if (e.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(named("check-endpoints"));
}

std::string error_code(const std::string& line) {
  const auto j = json_parse(line);
  EXPECT_TRUE(j.has_value()) << line;
  if (!j.has_value() || j->find("ok")->as_bool()) return "";
  return j->find("error")->find("code")->as_string();
}

[[nodiscard]] bool names_a_phase(const std::string& stack) {
  for (const char* phase :
       {"build-context", "estimate-injected", "propagate", "check-endpoints"}) {
    if ((stack + ";").find(std::string(";") + phase + ";") != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(RequestObs, ProfileCommandStartsDumpsStopsAndKeepsTheAggregate) {
  Session s = make_session();
  RequestContext ctx(s.registry());
  Protocol p(s, &ctx);
  obs::Tracer::set_thread_name("server");
  const Json started =
      parse_ok(p.handle_line(R"({"id":1,"cmd":"profile","args":{"action":"start"}})"));
  EXPECT_TRUE(started.find("running")->as_bool());
  EXPECT_EQ(error_code(p.handle_line(R"({"id":2,"cmd":"profile","args":{"action":"start"}})")),
            "bad_args");
  (void)parse_ok(p.handle_line(R"({"id":3,"cmd":"violations"})"));

  const Json dump =
      parse_ok(p.handle_line(R"({"id":4,"cmd":"profile","args":{"action":"dump"}})"));
  const auto& entries = dump.find("entries")->items();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(dump.find("stacks")->as_number(), static_cast<double>(entries.size()));
  bool phase_seen = false;
  for (const Json& e : entries) {
    const std::string& stack = e.find("stack")->as_string();
    EXPECT_EQ(stack.rfind("server;", 0), 0u) << stack;
    EXPECT_GT(e.find("us")->as_number(), 0.0) << stack;
    phase_seen = phase_seen || names_a_phase(stack);
  }
  EXPECT_TRUE(phase_seen);

  const Json stopped =
      parse_ok(p.handle_line(R"({"id":5,"cmd":"profile","args":{"action":"stop"}})"));
  EXPECT_FALSE(stopped.find("running")->as_bool());
  // The stop request's own span closes after its reply; from then on the
  // aggregate holds still.
  const Json status =
      parse_ok(p.handle_line(R"({"id":6,"cmd":"profile","args":{"action":"status"}})"));
  const Json again =
      parse_ok(p.handle_line(R"({"id":7,"cmd":"profile","args":{"action":"status"}})"));
  EXPECT_FALSE(status.find("running")->as_bool());
  EXPECT_GT(stopped.find("total_us")->as_number(), 0.0);
  EXPECT_GE(status.find("total_us")->as_number(), stopped.find("total_us")->as_number());
  EXPECT_EQ(again.find("total_us")->as_number(), status.find("total_us")->as_number());
}

TEST(RequestObs, SlowAnalyzingRequestsCarryFoldedPhaseLines) {
  Session s = make_session();
  RequestContext ctx(s.registry(), /*slow_ms=*/0.0);
  Protocol p(s, &ctx);
  obs::Tracer::set_thread_name("server");
  (void)parse_ok(p.handle_line(R"({"id":1,"cmd":"profile","args":{"action":"start"}})"));
  (void)parse_ok(p.handle_line(R"({"id":2,"cmd":"violations"})"));
  (void)parse_ok(p.handle_line(R"({"id":3,"cmd":"profile","args":{"action":"stop"}})"));

  const Json data = parse_ok(p.handle_line(R"({"id":4,"cmd":"slowlog"})"));
  const Json* analyzing = nullptr;
  for (const Json& e : data.find("entries")->items()) {
    if (e.find("cmd")->as_string() == "violations") analyzing = &e;
  }
  ASSERT_NE(analyzing, nullptr);
  const Json* profile = analyzing->find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_FALSE(profile->items().empty());
  EXPECT_LE(profile->items().size(), RequestContext::kMaxProfileLines);
  bool phase_seen = false;
  for (const Json& line : profile->items()) {
    const std::string& text = line.as_string();
    const std::size_t sep = text.rfind(' ');
    ASSERT_NE(sep, std::string::npos) << text;
    EXPECT_GT(std::stoull(text.substr(sep + 1)), 0u) << text;
    EXPECT_NE(text.find(";request 2: violations"), std::string::npos) << text;
    phase_seen = phase_seen || names_a_phase(text.substr(0, sep));
  }
  EXPECT_TRUE(phase_seen);
}

}  // namespace
}  // namespace nw::session
