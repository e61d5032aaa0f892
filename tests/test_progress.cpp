// Streaming progress and cooperative cancellation: checkpoints cover every
// phase, installing a sink never changes the result, cancellation throws
// without mutating caller state, and the session/server layers keep their
// pre-analyze state bit-exactly after a cancelled run.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/bus.hpp"
#include "noise/analyzer.hpp"
#include "noise/progress.hpp"
#include "session/json.hpp"
#include "session/protocol.hpp"
#include "session/server.hpp"
#include "session/session.hpp"
#include "sta/sta.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

gen::Generated bus_case(const lib::Library& library) {
  gen::BusConfig cfg;
  cfg.bits = 16;
  cfg.segments = 3;
  cfg.coupling_adj = 5 * FF;
  cfg.seed = 7;
  return gen::make_bus(library, cfg);
}

/// Records every checkpoint (phase name materialized to a string).
class RecordingSink final : public ProgressSink {
 public:
  struct Event {
    std::string phase;
    std::size_t completed = 0;
    std::size_t total = 0;
  };
  void on_progress(const Progress& p) override {
    events.push_back({p.phase, p.completed, p.total});
  }
  std::vector<Event> events;
};

/// Cancels at the Nth checkpoint.
class CancelAfter final : public ProgressSink {
 public:
  explicit CancelAfter(std::size_t n) : remaining_(n) {}
  void on_progress(const Progress&) override {}
  bool cancel_requested() override {
    if (remaining_ == 0) return true;
    --remaining_;
    return false;
  }

 private:
  std::size_t remaining_;
};

TEST(Progress, CheckpointsCoverEveryPhase) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options o;
  o.clock_period = g.sta_options.clock_period;

  RecordingSink sink;
  const Result r = analyze(g.design, g.para, timing, o, &sink);
  ASSERT_FALSE(sink.events.empty());

  std::set<std::string> phases;
  for (const auto& e : sink.events) {
    phases.insert(e.phase);
    EXPECT_LE(e.completed, e.total) << e.phase;
  }
  for (const char* phase :
       {"build-context", "estimate-injected", "propagate", "check-endpoints"}) {
    EXPECT_EQ(phases.count(phase), 1u) << phase;
  }
  // Each phase ends with completed == total.
  const auto last_of = [&](const std::string& phase) {
    RecordingSink::Event last;
    for (const auto& e : sink.events) {
      if (e.phase == phase) last = e;
    }
    return last;
  };
  for (const char* phase : {"estimate-injected", "propagate", "check-endpoints"}) {
    const auto e = last_of(phase);
    EXPECT_EQ(e.completed, e.total) << phase;
  }
  (void)r;
}

TEST(Progress, InstallingASinkDoesNotChangeTheResult) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options o;
  o.clock_period = g.sta_options.clock_period;
  o.threads = 4;

  const Result bare = analyze(g.design, g.para, timing, o);
  RecordingSink sink;
  const Result observed = analyze(g.design, g.para, timing, o, &sink);

  ASSERT_EQ(bare.violations.size(), observed.violations.size());
  EXPECT_EQ(bare.endpoint_slacks, observed.endpoint_slacks);
  for (std::size_t i = 0; i < bare.nets.size(); ++i) {
    EXPECT_DOUBLE_EQ(bare.nets[i].total_peak, observed.nets[i].total_peak) << i;
  }
  // The deterministic executor-task count is part of the bit-identity
  // contract: progress batching must not change the chunk decomposition.
  const obs::MetricSample* bare_tasks = bare.metrics.find(kMetricExecutorTasks);
  const obs::MetricSample* observed_tasks =
      observed.metrics.find(kMetricExecutorTasks);
  ASSERT_NE(bare_tasks, nullptr);
  ASSERT_NE(observed_tasks, nullptr);
  EXPECT_EQ(bare_tasks->count, observed_tasks->count);
}

TEST(Progress, CancellationThrowsCancelled) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = bus_case(library);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options o;
  o.clock_period = g.sta_options.clock_period;

  CancelAfter immediately(0);
  EXPECT_THROW((void)analyze(g.design, g.para, timing, o, &immediately), Cancelled);
  CancelAfter later(2);
  EXPECT_THROW((void)analyze(g.design, g.para, timing, o, &later), Cancelled);
}

TEST(Progress, CancelledSessionAnalysisLeavesStateUntouched) {
  const lib::Library library = lib::default_library();
  gen::Generated g = bus_case(library);
  session::SessionConfig sc;
  sc.sta = g.sta_options;
  sc.noise.clock_period = g.sta_options.clock_period;
  session::Session s(std::move(g.design), std::move(g.para), std::move(sc));

  CancelAfter immediately(0);
  s.set_progress_sink(&immediately);
  EXPECT_THROW((void)s.result(), Cancelled);
  // Nothing was committed: no analysis counted, epoch unchanged.
  EXPECT_EQ(s.full_analyses(), 0u);
  EXPECT_EQ(s.epoch(), 0u);

  // Clearing the sink lets the same query succeed.
  s.set_progress_sink(nullptr);
  const Result& r = s.result();
  EXPECT_GT(r.endpoints_checked, 0u);
  EXPECT_EQ(s.full_analyses(), 1u);
}

TEST(Progress, ProtocolCancelWhileIdleReportsNothingToCancel) {
  const lib::Library library = lib::default_library();
  gen::Generated g = bus_case(library);
  session::SessionConfig sc;
  sc.sta = g.sta_options;
  sc.noise.clock_period = g.sta_options.clock_period;
  session::Session s(std::move(g.design), std::move(g.para), std::move(sc));
  session::Protocol p(s);

  const std::string resp = p.handle_line("{\"id\":1,\"cmd\":\"cancel\"}");
  std::string err;
  const auto j = session::json_parse(resp, &err);
  ASSERT_TRUE(j.has_value()) << err;
  EXPECT_TRUE(j->find("ok")->as_bool()) << resp;
  EXPECT_FALSE(j->find("data")->find("cancelled")->as_bool()) << resp;
}

TEST(Progress, ServeWithProgressInterleavesEventsBeforeTheResponse) {
  const lib::Library library = lib::default_library();
  gen::Generated g = bus_case(library);
  session::SessionConfig sc;
  sc.sta = g.sta_options;
  sc.noise.clock_period = g.sta_options.clock_period;
  session::Session s(std::move(g.design), std::move(g.para), std::move(sc));

  std::istringstream in("{\"id\":1,\"cmd\":\"violations\"}\n");
  std::ostringstream out;
  const std::size_t handled =
      session::serve(s, in, out, nullptr, /*progress_events=*/true);
  EXPECT_EQ(handled, 1u);

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 2u) << out.str();
  std::size_t events = 0;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"progress\"") != std::string::npos) ++events;
  }
  EXPECT_GE(events, 1u) << out.str();
  // The response is the last line; every progress event precedes it.
  EXPECT_NE(lines.back().find("\"id\":1"), std::string::npos) << lines.back();
  EXPECT_NE(lines.back().find("\"ok\":true"), std::string::npos) << lines.back();
  EXPECT_EQ(lines.back().find("\"event\""), std::string::npos) << lines.back();
}

}  // namespace
}  // namespace nw::noise
