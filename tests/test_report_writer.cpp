// Noise report rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "gen/pipeline.hpp"
#include "noise/analyzer.hpp"
#include "noise/delay_impact.hpp"
#include "noise/report_writer.hpp"
#include "sta/sta.hpp"
#include "text_io.hpp"
#include "util/units.hpp"

namespace nw::noise {
namespace {

gen::PipelineConfig pipe_cfg() {
  gen::PipelineConfig cfg;
  cfg.paths = 32;
  cfg.coupling_cap = 28 * FF;
  return cfg;
}

struct Fixture {
  lib::Library library = lib::default_library();
  gen::Generated g = gen::make_pipeline(library, pipe_cfg());
  sta::Result timing;
  Options opt;
  Result result;

  Fixture() {
    timing = sta::run(g.design, g.para, g.sta_options);
    opt.mode = AnalysisMode::kNoFiltering;  // guarantees violations
    opt.clock_period = g.sta_options.clock_period;
    result = analyze(g.design, g.para, timing, opt);
  }
};

TEST(ReportWriter, ContainsSummaryAndTables) {
  const Fixture f;
  ASSERT_GT(f.result.violations.size(), 0u);
  const std::string text =
      textio::written(write_report, f.g.design, f.opt, f.result, ReportOptions{});
  EXPECT_NE(text.find("noisewin report"), std::string::npos);
  EXPECT_NE(text.find("mode: no-filtering"), std::string::npos);
  EXPECT_NE(text.find("violations: " + std::to_string(f.result.violations.size())),
            std::string::npos);
  EXPECT_NE(text.find("-- violations"), std::string::npos);
  EXPECT_NE(text.find("-- worst nets by combined peak --"), std::string::npos);
  // The worst violation's endpoint name appears.
  EXPECT_NE(text.find(f.g.design.pin_name(f.result.violations.front().endpoint)),
            std::string::npos);
  // And its origin trace with the aggressor list.
  EXPECT_NE(text.find("worst violation origin:"), std::string::npos);
  EXPECT_NE(text.find("[aggressors:"), std::string::npos);
}

TEST(ReportWriter, CapsRows) {
  const lib::Library library = lib::default_library();
  gen::PipelineConfig cfg = pipe_cfg();
  cfg.paths = 4 * kMaxViolationRows;
  const gen::Generated g = gen::make_pipeline(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  Options opt;
  opt.mode = AnalysisMode::kNoFiltering;
  opt.clock_period = g.sta_options.clock_period;
  const Result r = analyze(g.design, g.para, timing, opt);
  ASSERT_GT(r.violations.size(), kMaxViolationRows);
  const std::string text = textio::written(write_report, g.design, opt, r, ReportOptions{});
  const std::string heading = "-- violations (worst slack first, showing " +
                              std::to_string(kMaxViolationRows) + " of " +
                              std::to_string(r.violations.size()) + ") --\n";
  const std::size_t at = text.find(heading);
  ASSERT_NE(at, std::string::npos) << text;
  // The table runs to the first blank line: a header, a rule and the rows.
  std::istringstream table(text.substr(at + heading.size()));
  std::size_t lines = 0;
  for (std::string line; std::getline(table, line) && !line.empty();) ++lines;
  EXPECT_EQ(lines, 2 + kMaxViolationRows);
}

TEST(ReportWriter, CleanDesignHasNoViolationSection) {
  const Fixture f;
  Options opt = f.opt;
  opt.mode = AnalysisMode::kNoiseWindows;  // pipeline glitches are early
  const Result clean = analyze(f.g.design, f.g.para, f.timing, opt);
  ASSERT_EQ(clean.violations.size(), 0u);
  const std::string text = textio::written(write_report, f.g.design, opt, clean, ReportOptions{});
  EXPECT_EQ(text.find("-- violations"), std::string::npos);
  EXPECT_NE(text.find("violations: 0"), std::string::npos);
}

TEST(ReportWriter, TelemetryFooterIsOptional) {
  const Fixture f;
  const std::string without =
      textio::written(write_report, f.g.design, f.opt, f.result, ReportOptions{});
  EXPECT_EQ(without.find("analysis stats"), std::string::npos);

  ReportOptions ropt;
  ropt.telemetry_footer = true;
  const std::string with = textio::written(write_report, f.g.design, f.opt, f.result, ropt);
  // The footer is the write_stats rendering, appended verbatim.
  std::ostringstream expected;
  write_stats(expected, f.result.telemetry);
  EXPECT_NE(with.find(expected.str()), std::string::npos);
}

TEST(ReportWriter, DelayImpactSection) {
  const Fixture f;
  const DelayImpactSummary impact =
      compute_delay_impact(f.g.design, f.timing, f.result, f.opt);
  std::ostringstream os;
  write_delay_impact(os, f.g.design, impact);
  const std::string text = os.str();
  EXPECT_NE(text.find("crosstalk delay impact"), std::string::npos);
  EXPECT_NE(text.find("affected nets: " + std::to_string(impact.affected_nets)),
            std::string::npos);
}

}  // namespace
}  // namespace nw::noise
