// obs::Profiler: span time folded into collapsed stacks — exact self and
// inclusive times, start/stop semantics, the folded_delta
// slow-request capture, no per-thread state left behind by workers while
// every consumer is off, and — the contract the whole feature rests on —
// analysis results byte-identical with profiling off vs on, across modes
// and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "noise/report_writer.hpp"
#include "noise/telemetry.hpp"
#include "obs/profile.hpp"
#include "obs/tracer.hpp"
#include "sta/sta.hpp"
#include "text_io.hpp"

namespace nw {
namespace {

/// Hold a named span open for `ms` milliseconds.
void dwell(std::string_view name, int ms, double* seconds = nullptr) {
  obs::Span span(name, obs::SpanKind::kPhase, seconds);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

[[nodiscard]] const obs::FoldedEntry* find_stack(
    const std::vector<obs::FoldedEntry>& entries, std::string_view stack) {
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const obs::FoldedEntry& e) { return e.stack == stack; });
  return it == entries.end() ? nullptr : &*it;
}

gen::RandLogicConfig rand_logic_config() {
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 10;
  cfg.gates = 200;
  cfg.levels = 5;
  cfg.coupling_prob = 0.6;
  cfg.dff_fraction = 0.3;
  cfg.seed = 29;
  return cfg;
}

struct RandLogic {
  lib::Library library = lib::default_library();
  gen::Generated g = gen::make_rand_logic(library, rand_logic_config());
  sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  [[nodiscard]] noise::Options options(int threads) const {
    noise::Options o;
    o.clock_period = g.sta_options.clock_period;
    o.threads = threads;
    return o;
  }
};

const RandLogic& rand_logic() {
  static const RandLogic d;
  return d;
}

TEST(Profiler, RejectsDoubleStart) {
  ASSERT_FALSE(obs::Profiler::running());
  ASSERT_TRUE(obs::Profiler::start());
  EXPECT_TRUE(obs::Profiler::running());
  EXPECT_FALSE(obs::Profiler::start());  // already running
  EXPECT_TRUE(obs::Profiler::running());

  obs::Profiler::stop();
  EXPECT_FALSE(obs::Profiler::running());
  obs::Profiler::stop();  // idempotent
}

TEST(Profiler, FoldsNestedSpanStacksRootedAtTheThreadName) {
  obs::Tracer::set_thread_name("ptest");
  ASSERT_TRUE(obs::Profiler::start());
  {
    obs::Span outer("outer");
    dwell("inner", 2);
  }
  dwell("solo", 2);
  obs::Profiler::stop();

  const std::vector<obs::FoldedEntry> entries = obs::Profiler::snapshot();
  // Root frame is the thread name; nesting joins with ';' leaf-last, and
  // every span that ran is there, however short.
  EXPECT_NE(find_stack(entries, "ptest;outer;inner"), nullptr);
  EXPECT_NE(find_stack(entries, "ptest;solo"), nullptr);
  std::uint64_t total = 0;
  for (const obs::FoldedEntry& e : entries) {
    EXPECT_GT(e.us, 0u);
    EXPECT_EQ(e.stack.rfind("ptest", 0), 0u) << e.stack;
    total += e.us;
  }
  EXPECT_EQ(obs::Profiler::total_us(), total);
  // The aggregate survives stop() (dumpable) and vanishes at the next
  // start().
  EXPECT_FALSE(obs::Profiler::snapshot().empty());
  ASSERT_TRUE(obs::Profiler::start());
  obs::Profiler::stop();
  EXPECT_TRUE(obs::Profiler::snapshot().empty());
  EXPECT_EQ(obs::Profiler::total_us(), 0u);
}

TEST(Profiler, ParentSelfTimeIsItsTotalMinusItsChildren) {
  obs::Tracer::set_thread_name("ptest");
  double outer_s = 0.0;
  double inner_s = 0.0;
  ASSERT_TRUE(obs::Profiler::start());
  {
    obs::Span outer("outer", obs::SpanKind::kPhase, &outer_s);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    dwell("inner", 2, &inner_s);
    dwell("inner", 1, &inner_s);  // a second call folds into the same stack
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::Profiler::stop();
  const std::vector<obs::FoldedEntry> entries = obs::Profiler::snapshot();

  ASSERT_EQ(entries.size(), 2u);
  const obs::FoldedEntry* outer = find_stack(entries, "ptest;outer");
  const obs::FoldedEntry* inner = find_stack(entries, "ptest;outer;inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Each stack's nanoseconds are rounded up to whole microseconds once.
  EXPECT_NEAR(static_cast<double>(inner->us), inner_s * 1e6, 1.0);
  EXPECT_NEAR(static_cast<double>(outer->us), (outer_s - inner_s) * 1e6, 1.0);
  EXPECT_NEAR(static_cast<double>(outer->us + inner->us), outer_s * 1e6, 2.0);
  EXPECT_GE(outer->us, 4000u);  // the outer span's own sleeps
}

TEST(Profiler, FoldsExactPhaseTimesOnTheCallingThread) {
  constexpr std::pair<const char*, const char*> kPhases[] = {
      {"build-context", noise::kMetricContextSeconds},
      {"estimate-injected", noise::kMetricEstimateSeconds},
      {"propagate", noise::kMetricPropagateSeconds},
      {"check-endpoints", noise::kMetricEndpointsSeconds}};
  const RandLogic& d = rand_logic();
  obs::Tracer::set_thread_name("ptest");
  ASSERT_TRUE(obs::Profiler::start());
  const noise::Result r = noise::analyze(d.g.design, d.g.para, d.timing, d.options(1));
  obs::Profiler::stop();
  const std::vector<obs::FoldedEntry> entries = obs::Profiler::snapshot();

  for (const auto& [frame, metric] : kPhases) {
    // Inclusive time: every stack on this thread that passes through the
    // frame, each stack counted once.
    std::uint64_t us = 0;
    std::size_t stacks = 0;
    for (const obs::FoldedEntry& e : entries) {
      if (e.stack.rfind("ptest;", 0) != 0) continue;
      std::istringstream frames(e.stack);
      std::string f;
      bool under = false;
      while (std::getline(frames, f, ';')) under = under || f == frame;
      if (!under) continue;
      us += e.us;
      ++stacks;
    }
    const obs::MetricSample* gauge = r.metrics.find(metric);
    ASSERT_NE(gauge, nullptr) << metric;
    EXPECT_GT(stacks, 0u) << frame;
    EXPECT_NEAR(static_cast<double>(us), gauge->value * 1e6, static_cast<double>(stacks))
        << frame << " over " << stacks << " stacks";
  }
}

TEST(Profiler, NoStackEndsInTwoEqualFrames) {
  // Executor chunks run under their region's phase span; a chunk frame
  // named like its region label would nest each phase inside itself.
  const RandLogic& d = rand_logic();
  obs::Tracer::set_thread_name("ptest");
  ASSERT_TRUE(obs::Profiler::start());
  (void)noise::analyze(d.g.design, d.g.para, d.timing, d.options(1));
  obs::Profiler::stop();
  const std::vector<obs::FoldedEntry> entries = obs::Profiler::snapshot();
  bool chunks = false;
  for (const obs::FoldedEntry& e : entries) {
    const std::size_t last = e.stack.rfind(';');
    if (last == std::string::npos) continue;
    const std::size_t before = e.stack.rfind(';', last - 1);
    const std::size_t from = before == std::string::npos ? 0 : before + 1;
    EXPECT_NE(e.stack.substr(from, last - from), e.stack.substr(last + 1)) << e.stack;
    chunks = chunks || e.stack.find(";estimate-injected;estimate-injected chunk") !=
                           std::string::npos;
  }
  EXPECT_TRUE(chunks) << "no estimate chunk under its phase";
}

TEST(Profiler, WriteFoldedEmitsSortedStackCountLines) {
  obs::Tracer::set_thread_name("ptest");
  ASSERT_TRUE(obs::Profiler::start());
  dwell("alpha", 1);
  dwell("beta", 1);
  obs::Profiler::stop();

  std::ostringstream os;
  obs::Profiler::write_folded(os);
  std::istringstream in(os.str());
  std::string line;
  std::string prev_stack;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const std::size_t sep = line.rfind(' ');
    ASSERT_NE(sep, std::string::npos) << line;
    const std::string stack = line.substr(0, sep);
    EXPECT_FALSE(stack.empty());
    EXPECT_GT(std::stoull(line.substr(sep + 1)), 0u) << line;
    EXPECT_LT(prev_stack, stack) << "unsorted or duplicate stack";
    prev_stack = stack;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(Profiler, SpansCostNothingWhileStopped) {
  ASSERT_TRUE(obs::Profiler::start());  // drops any earlier aggregate
  obs::Profiler::stop();
  dwell("unseen", 1);
  EXPECT_TRUE(obs::Profiler::snapshot().empty());
  EXPECT_EQ(obs::Profiler::total_us(), 0u);
}

TEST(Profiler, ExitedThreadsFoldIntoTheAggregate) {
  ASSERT_TRUE(obs::Profiler::start());
  std::thread([] {
    obs::Tracer::set_thread_name("pworker");
    dwell("job", 1);
  }).join();
  obs::Profiler::stop();
  const std::vector<obs::FoldedEntry> entries = obs::Profiler::snapshot();
  const obs::FoldedEntry* job = find_stack(entries, "pworker;job");
  ASSERT_NE(job, nullptr);
  EXPECT_GE(job->us, 1000u);
  EXPECT_GT(obs::Profiler::approx_bytes(), 0u);
  ASSERT_TRUE(obs::Profiler::start());  // drops exited threads' stacks too
  obs::Profiler::stop();
  EXPECT_TRUE(obs::Profiler::snapshot().empty());
}

TEST(FoldedDelta, KeepsOnlyGrowthTopKByDelta) {
  const std::vector<obs::FoldedEntry> before = {
      {"t;a", 10}, {"t;b", 5}, {"t;shrunk", 9}};
  const std::vector<obs::FoldedEntry> now = {
      {"t;a", 11}, {"t;b", 25}, {"t;new", 7}, {"t;shrunk", 9}};

  const std::vector<obs::FoldedEntry> top = obs::folded_delta(before, now, 2);
  ASSERT_EQ(top.size(), 2u);
  // Sorted by descending delta: b grew 20, new grew 7; a (1) is cut by the
  // limit and shrunk (0) is never a candidate.
  EXPECT_EQ(top[0].stack, "t;b");
  EXPECT_EQ(top[0].us, 20u);
  EXPECT_EQ(top[1].stack, "t;new");
  EXPECT_EQ(top[1].us, 7u);

  EXPECT_TRUE(obs::folded_delta(now, now, 8).empty());
  EXPECT_EQ(obs::folded_delta({}, now, 99).size(), 4u);
}

// Executor workers are named and torn down on every analysis. With tracing
// and profiling off they must leave nothing behind: no trace buffer, no
// call tree.
TEST(SpanConsumers, WorkerThreadsLeaveNoStateWhileOff) {
  ASSERT_FALSE(obs::trace_enabled());
  ASSERT_FALSE(obs::Profiler::running());
  const RandLogic& d = rand_logic();
  const noise::Options o = d.options(4);
  (void)noise::analyze(d.g.design, d.g.para, d.timing, o);
  const std::size_t trace_bytes = obs::Tracer::buffered_bytes();
  const std::uint64_t profile_bytes = obs::Profiler::approx_bytes();
  for (int i = 1; i < 50; ++i) (void)noise::analyze(d.g.design, d.g.para, d.timing, o);
  EXPECT_EQ(obs::Tracer::buffered_bytes(), trace_bytes);
  EXPECT_EQ(obs::Profiler::approx_bytes(), profile_bytes);
}

// A traced worker's buffer outlives the worker until clear(), which then
// drops it.
TEST(SpanConsumers, ExitedTracedThreadsKeepEventsUntilClear) {
  obs::Tracer::clear();
  const std::size_t base = obs::Tracer::buffered_bytes();
  obs::Tracer::enable();
  std::thread([] { const obs::Span s("exited-worker-span", obs::SpanKind::kTask); }).join();
  obs::Tracer::disable();
  const std::vector<obs::TraceEvent> events = obs::Tracer::events();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const obs::TraceEvent& e) {
    return e.name == "exited-worker-span";
  }));
  EXPECT_GT(obs::Tracer::buffered_bytes(), base);
  obs::Tracer::clear();
  EXPECT_EQ(obs::Tracer::buffered_bytes(), base);
}

// ---------------------------------------------------------------------------
// The determinism contract: profiling only reads the spans' own clocks, so
// results are byte-identical with profiling off vs on, in every mode, at
// any thread count. Compared via the full text report (nets, violations,
// provenance rendering) — byte equality, not NEAR.
// ---------------------------------------------------------------------------

TEST(ProfilerDeterminism, ByteIdenticalResultsAcrossModesThreads) {
  const RandLogic& d = rand_logic();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> thread_counts = {1};
  if (hw > 1) thread_counts.push_back(hw);

  for (const noise::AnalysisMode mode :
       {noise::AnalysisMode::kNoFiltering, noise::AnalysisMode::kSwitchingWindows,
        noise::AnalysisMode::kNoiseWindows}) {
    for (const int threads : thread_counts) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " threads=" + std::to_string(threads));
      noise::Options o = d.options(threads);
      o.mode = mode;

      ASSERT_FALSE(obs::Profiler::running());
      const noise::Result ref = noise::analyze(d.g.design, d.g.para, d.timing, o);
      const std::string ref_report =
          textio::written(noise::write_report, d.g.design, o, ref, noise::ReportOptions{});

      ASSERT_TRUE(obs::Profiler::start());
      const noise::Result run = noise::analyze(d.g.design, d.g.para, d.timing, o);
      obs::Profiler::stop();
      EXPECT_FALSE(obs::Profiler::snapshot().empty());
      EXPECT_EQ(textio::written(noise::write_report, d.g.design, o, run, noise::ReportOptions{}),
                ref_report);
    }
  }
}

}  // namespace
}  // namespace nw
