// obs::Profiler: span-stack sampling into folded stacks, start/stop/clear
// semantics, the folded_delta slow-request capture, and — the contract the
// whole feature rests on — analysis results byte-identical with profiling
// off vs on, at any rate, across modes and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/randlogic.hpp"
#include "noise/analyzer.hpp"
#include "noise/report_writer.hpp"
#include "obs/profile.hpp"
#include "obs/tracer.hpp"
#include "sta/sta.hpp"
#include "text_io.hpp"

namespace nw {
namespace {

/// Spin a named span long enough for a fast ticker to land in it.
void dwell(std::string_view name, int ms) {
  obs::Span span(name);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

[[nodiscard]] bool has_stack(const std::vector<obs::FoldedEntry>& entries,
                             std::string_view stack) {
  return std::any_of(entries.begin(), entries.end(),
                     [&](const obs::FoldedEntry& e) { return e.stack == stack; });
}

TEST(Profiler, RejectsBadRatesAndDoubleStart) {
  obs::Profiler::clear();
  EXPECT_FALSE(obs::Profiler::start(0));
  EXPECT_FALSE(obs::Profiler::start(-7));
  EXPECT_FALSE(obs::Profiler::start(obs::Profiler::kMaxHz + 1));
  EXPECT_FALSE(obs::Profiler::running());

  ASSERT_TRUE(obs::Profiler::start(500));
  EXPECT_TRUE(obs::Profiler::running());
  EXPECT_EQ(obs::Profiler::hz(), 500);
  EXPECT_FALSE(obs::Profiler::start(100));  // already running
  EXPECT_EQ(obs::Profiler::hz(), 500);      // unchanged by the rejected start

  obs::Profiler::stop();
  EXPECT_FALSE(obs::Profiler::running());
  obs::Profiler::stop();  // idempotent
  obs::Profiler::clear();
}

TEST(Profiler, SamplesNestedSpanStacksRootedAtTheThreadName) {
  obs::profile_set_thread_name("ptest");
  obs::Profiler::clear();
  ASSERT_TRUE(obs::Profiler::start(4000));
  {
    obs::Span outer("outer");
    dwell("inner", 40);
  }
  dwell("solo", 40);
  obs::Profiler::stop();

  const std::vector<obs::FoldedEntry> entries = obs::Profiler::snapshot();
  ASSERT_FALSE(entries.empty());
  EXPECT_GT(obs::Profiler::total_samples(), 0u);
  // Root frame is the thread name; nesting joins with ';' leaf-last.
  EXPECT_TRUE(has_stack(entries, "ptest;outer;inner"))
      << "stacks: " << entries.size();
  EXPECT_TRUE(has_stack(entries, "ptest;solo"));
  for (const obs::FoldedEntry& e : entries) {
    EXPECT_GT(e.count, 0u);
    EXPECT_EQ(e.stack.rfind("ptest", 0), 0u) << e.stack;
  }
  // Samples survive stop() (dumpable) and vanish on clear().
  EXPECT_FALSE(obs::Profiler::snapshot().empty());
  obs::Profiler::clear();
  EXPECT_TRUE(obs::Profiler::snapshot().empty());
  EXPECT_EQ(obs::Profiler::total_samples(), 0u);
}

TEST(Profiler, WriteFoldedEmitsSortedStackCountLines) {
  obs::profile_set_thread_name("ptest");
  obs::Profiler::clear();
  ASSERT_TRUE(obs::Profiler::start(4000));
  dwell("alpha", 25);
  dwell("beta", 25);
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
  EXPECT_GT(lines, 0u);
  obs::Profiler::clear();
}

TEST(Profiler, SpansCostNothingWhileStopped) {
  obs::Profiler::clear();
  ASSERT_FALSE(obs::Profiler::running());
  dwell("unseen", 5);
  EXPECT_TRUE(obs::Profiler::snapshot().empty());
  EXPECT_EQ(obs::Profiler::total_samples(), 0u);
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
  EXPECT_EQ(top[0].count, 20u);
  EXPECT_EQ(top[1].stack, "t;new");
  EXPECT_EQ(top[1].count, 7u);

  EXPECT_TRUE(obs::folded_delta(now, now, 8).empty());
  EXPECT_EQ(obs::folded_delta({}, now, 99).size(), 4u);
}

// ---------------------------------------------------------------------------
// The determinism contract: profiling only *reads* span state, so results
// are byte-identical with profiling off vs on at any sampling rate, in
// every mode, at any thread count. Compared via the full text report
// (nets, violations, provenance rendering) — byte equality, not NEAR.
// ---------------------------------------------------------------------------

TEST(ProfilerDeterminism, ByteIdenticalResultsAcrossRatesModesThreads) {
  const lib::Library library = lib::default_library();
  gen::RandLogicConfig cfg;
  cfg.primary_inputs = 10;
  cfg.gates = 200;
  cfg.levels = 5;
  cfg.coupling_prob = 0.6;
  cfg.dff_fraction = 0.3;
  cfg.seed = 29;
  const gen::Generated g = gen::make_rand_logic(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> thread_counts = {1};
  if (hw > 1) thread_counts.push_back(hw);

  for (const noise::AnalysisMode mode :
       {noise::AnalysisMode::kNoFiltering, noise::AnalysisMode::kSwitchingWindows,
        noise::AnalysisMode::kNoiseWindows}) {
    for (const int threads : thread_counts) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " threads=" + std::to_string(threads));
      noise::Options o;
      o.mode = mode;
      o.clock_period = g.sta_options.clock_period;
      o.threads = threads;

      // Reference: profiling off (the CLI's --profile-hz 0).
      obs::Profiler::stop();
      obs::Profiler::clear();
      const noise::Result ref = noise::analyze(g.design, g.para, timing, o);
      const std::string ref_report =
          textio::written(noise::write_report, g.design, o, ref, noise::ReportOptions{});

      for (const int hz : {97, 997}) {
        SCOPED_TRACE("hz=" + std::to_string(hz));
        obs::Profiler::clear();
        ASSERT_TRUE(obs::Profiler::start(hz));
        const noise::Result run = noise::analyze(g.design, g.para, timing, o);
        obs::Profiler::stop();
        EXPECT_EQ(textio::written(noise::write_report, g.design, o, run, noise::ReportOptions{}),
                  ref_report);
      }
    }
  }
  obs::Profiler::clear();
}

}  // namespace
}  // namespace nw
