// Live-telemetry primitives (obs/timeseries.hpp): ring wraparound,
// rotating-quantile window expiry, sampler lifecycle, and the determinism
// property the whole subsystem is built on — sampling never changes
// analysis output.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gen/bus.hpp"
#include "noise/analyzer.hpp"
#include "noise/report_writer.hpp"
#include "obs/timeseries.hpp"
#include "session/stats_json.hpp"
#include "sta/sta.hpp"
#include "text_io.hpp"
#include "util/units.hpp"

namespace nw {
namespace {

TEST(TimeSeriesRing, WrapsAtCapacityKeepingNewestOldestFirst) {
  obs::TimeSeriesRing ring({"a", "b"}, 4);
  for (int i = 0; i < 6; ++i) {
    ring.record(static_cast<double>(i), {static_cast<double>(i), 10.0 + i});
  }
  const obs::TimeSeriesSnapshot snap = ring.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);  // bounded: only capacity samples retained
  EXPECT_EQ(snap.total, 6u);
  EXPECT_EQ(snap.capacity, 4u);
  ASSERT_EQ(snap.series.size(), 2u);
  // Oldest first: samples 2..5 survive, 0 and 1 were overwritten.
  for (std::size_t i = 0; i < snap.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(snap.samples[i].t_ms, static_cast<double>(i + 2));
    ASSERT_EQ(snap.samples[i].v.size(), 2u);
    EXPECT_DOUBLE_EQ(snap.samples[i].v[0], static_cast<double>(i + 2));
    EXPECT_DOUBLE_EQ(snap.samples[i].v[1], 12.0 + static_cast<double>(i));
  }
  // last_n trims from the old end.
  const obs::TimeSeriesSnapshot tail = ring.snapshot(2);
  ASSERT_EQ(tail.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(tail.samples.front().t_ms, 4.0);
  EXPECT_DOUBLE_EQ(tail.samples.back().t_ms, 5.0);
}

TEST(TimeSeriesRing, PadsAndTruncatesValuesToSeriesArity) {
  obs::TimeSeriesRing ring({"x", "y", "z"}, 8);
  ring.record(0.0, {1.0});                  // short: padded with zeros
  ring.record(1.0, {1.0, 2.0, 3.0, 4.0});   // long: truncated
  const obs::TimeSeriesSnapshot snap = ring.snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  ASSERT_EQ(snap.samples[0].v.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.samples[0].v[1], 0.0);
  ASSERT_EQ(snap.samples[1].v.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.samples[1].v[2], 3.0);
}

TEST(TimeSeriesRing, SnapshotJsonCarriesStructure) {
  obs::TimeSeriesRing ring({"q"}, 2);
  ring.set_interval_ms(250);
  ring.record(0.0, {3.0});
  ring.record(250.0, {4.0});
  const session::Json js = session::timeseries_json(ring.snapshot());
  std::vector<std::string> keys;
  for (const auto& [k, v] : js.members()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"interval_ms", "capacity", "total",
                                            "series", "samples"}));
  EXPECT_EQ(js.find("interval_ms")->as_number(), 250.0);
  EXPECT_EQ(js.find("capacity")->as_number(), 2.0);
  EXPECT_EQ(js.find("total")->as_number(), 2.0);
  EXPECT_EQ(js.find("series")->dump(), "[\"q\"]");
  const std::vector<session::Json>& samples = js.find("samples")->items();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[1].dump(), "{\"t_ms\":250,\"v\":[4]}");
}

TEST(RotatingQuantile, OldObservationsExpireAfterFullRotation) {
  obs::RotatingQuantile rq({1, 10, 100}, 4);
  for (int i = 0; i < 50; ++i) rq.observe(50.0);  // lands in (10, 100]
  EXPECT_GT(rq.quantile(0.5), 10.0);
  EXPECT_LE(rq.quantile(0.5), 100.0);

  // Three rotations: the samples' sub-window is still live.
  rq.rotate();
  rq.rotate();
  rq.rotate();
  EXPECT_GT(rq.quantile(0.5), 10.0);
  EXPECT_LE(rq.quantile(0.5), 100.0);
  // Fourth rotation clears the sub-window that held them.
  rq.rotate();
  EXPECT_DOUBLE_EQ(rq.quantile(0.5), 0.0);

  // New observations land in the (recycled) current window.
  rq.observe(5.0);
  EXPECT_GT(rq.quantile(0.5), 1.0);
  EXPECT_LE(rq.quantile(0.5), 10.0);
}

TEST(RotatingQuantile, MergesAcrossLiveWindows) {
  obs::RotatingQuantile rq({1, 2, 5, 10}, 3);
  rq.observe(0.5);
  rq.rotate();
  rq.observe(8.0);
  // Median of {0.5, 8.0} interpolates somewhere above the first bucket.
  EXPECT_GT(rq.quantile(0.95), 5.0);
  EXPECT_LE(rq.quantile(0.95), 10.0);
}

TEST(Sampler, StartStopAreIdempotentAndBounded) {
  obs::TimeSeriesRing ring({"n"}, 16);
  std::atomic<int> calls{0};
  obs::Sampler sampler(
      ring, [&] { return std::vector<double>{static_cast<double>(++calls)}; },
      5);
  const auto total = [&] { return ring.snapshot().total; };
  EXPECT_EQ(total(), 0u);  // constructing does not start
  sampler.start();
  // The first sample is recorded synchronously at start (t = 0).
  EXPECT_GE(total(), 1u);
  sampler.start();  // second start is a no-op, not a second thread
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  const std::uint64_t after_stop = total();
  sampler.stop();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(total(), after_stop);  // no straggler ticks after join
  const obs::TimeSeriesSnapshot snap = ring.snapshot();
  for (std::size_t i = 1; i < snap.samples.size(); ++i) {
    EXPECT_GE(snap.samples[i].t_ms, snap.samples[i - 1].t_ms);
  }
  // Restart works after stop: it records its synchronous first sample.
  sampler.start();
  EXPECT_GT(total(), after_stop);
  sampler.stop();
}

TEST(Sampler, AnalysisIsByteIdenticalWithSamplingOnOrOff) {
  // The determinism property: a running sampler (read-only observer) must
  // not perturb analysis output, at any interval.
  const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 8;
  cfg.seed = 42;
  const gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options o;
  o.mode = noise::AnalysisMode::kNoiseWindows;
  o.clock_period = g.sta_options.clock_period;

  const noise::Result quiet = noise::analyze(g.design, g.para, timing, o);
  const std::string quiet_report =
      textio::written(noise::write_report, g.design, o, quiet, noise::ReportOptions{});

  obs::TimeSeriesRing ring({"tick"}, 64);
  obs::Sampler sampler(
      ring, [] { return std::vector<double>{1.0}; }, 1);  // aggressive: 1ms
  sampler.start();
  const noise::Result sampled = noise::analyze(g.design, g.para, timing, o);
  sampler.stop();
  const std::string sampled_report =
      textio::written(noise::write_report, g.design, o, sampled, noise::ReportOptions{});

  EXPECT_EQ(quiet_report, sampled_report);
  EXPECT_EQ(quiet.violations.size(), sampled.violations.size());
}

}  // namespace
}  // namespace nw
