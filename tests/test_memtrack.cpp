// The memory accounting subsystem (obs/memtrack.hpp): named per-subsystem
// accounts, the tracking allocator, and — the contract the whole
// feature rests on — tracking only counts bytes, it never changes results.
// Analysis output must be byte-identical with tracking on or off, accounts
// must balance back to their baseline after teardown, peaks must be
// monotone, and concurrent charging from executor workers must not lose
// updates.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/bus.hpp"
#include "noise/analyzer.hpp"
#include "noise/report_writer.hpp"
#include "obs/memtrack.hpp"
#include "session/json.hpp"
#include "session/stats_json.hpp"
#include "sta/sta.hpp"
#include "tools/cli.hpp"
#include "util/executor.hpp"

namespace nw {
namespace {

using obs::MemAccountId;
using obs::MemTracker;

/// Restores the global enable flag on scope exit so a failing test cannot
/// leave tracking off for the rest of the binary.
class EnabledGuard {
 public:
  EnabledGuard() : saved_(obs::memtrack_enabled()) {}
  ~EnabledGuard() { MemTracker::set_enabled(saved_); }

 private:
  bool saved_;
};

TEST(MemAccount, ChargeReleaseBalances) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  obs::MemAccount& acct = MemTracker::account(MemAccountId::kResult);
  const std::int64_t base_current = acct.current();
  const std::int64_t base_peak = acct.peak();
  const std::uint64_t base_allocs = acct.allocs();

  acct.charge(1024);
  EXPECT_EQ(acct.current(), base_current + 1024);
  EXPECT_GE(acct.peak(), base_current + 1024);
  acct.charge(512);
  EXPECT_EQ(acct.current(), base_current + 1536);
  acct.release(512);
  acct.release(1024);
  EXPECT_EQ(acct.current(), base_current);
  EXPECT_EQ(acct.allocs(), base_allocs + 2);
  EXPECT_GE(acct.peak(), base_peak);
}

TEST(MemAccount, PeakIsMonotone) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  obs::MemAccount& acct = MemTracker::account(MemAccountId::kResult);
  std::int64_t last_peak = acct.peak();
  for (int i = 0; i < 50; ++i) {
    acct.charge(128 * (i % 7 + 1));
    EXPECT_GE(acct.peak(), last_peak);
    last_peak = acct.peak();
    acct.release(128 * (i % 7 + 1));
    // Releasing never lowers the high-water mark.
    EXPECT_EQ(acct.peak(), last_peak);
  }
}

TEST(MemAccount, ScopedChargeReleasesOnExit) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  obs::MemAccount& acct = MemTracker::account(MemAccountId::kSta);
  const std::int64_t base = acct.current();
  {
    const obs::ScopedMemCharge charge(MemAccountId::kSta, 4096);
    EXPECT_EQ(acct.current(), base + 4096);
  }
  EXPECT_EQ(acct.current(), base);
}

TEST(MemAccount, DisabledChargesAreFree) {
  const EnabledGuard guard;
  MemTracker::set_enabled(false);
  obs::MemAccount& acct = MemTracker::account(MemAccountId::kResult);
  const std::int64_t base_current = acct.current();
  const std::uint64_t base_allocs = acct.allocs();
  acct.charge(1 << 20);
  acct.release(1 << 20);
  EXPECT_EQ(acct.current(), base_current);
  EXPECT_EQ(acct.allocs(), base_allocs);
}

TEST(MemAccount, ConcurrentChargeReleaseFromExecutorWorkers) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  obs::MemAccount& acct = MemTracker::account(MemAccountId::kDaemonQueues);
  const std::int64_t base = acct.current();

  util::Executor exec(0);  // all hardware threads
  constexpr std::size_t kItems = 20000;
  exec.parallel_for(kItems, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t bytes = 64 + (i % 191);
      acct.charge(bytes);
      acct.release(bytes);
    }
  });
  EXPECT_EQ(acct.current(), base);
  EXPECT_GE(acct.peak(), base + 64);
}

TEST(TrackedAlloc, VectorChargesAndReleases) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  obs::MemAccount& acct = MemTracker::account(MemAccountId::kKernelBuffers);
  const std::int64_t base = acct.current();
  {
    std::vector<double, obs::TrackedAlloc<double, MemAccountId::kKernelBuffers>>
        v(1000, 1.5);
    EXPECT_GE(acct.current(),
              base + static_cast<std::int64_t>(1000 * sizeof(double)));
    v.resize(5000);
    EXPECT_GE(acct.current(),
              base + static_cast<std::int64_t>(5000 * sizeof(double)));
  }
  EXPECT_EQ(acct.current(), base);
}

// ---------------------------------------------------------------------------
// The determinism property: tracking on vs off is byte-identical.

/// One full analysis plus its rendered artifacts, bundled for comparison.
struct RunArtifacts {
  std::string report;
  std::string explains;  // provenance rendering for every violation net
  std::size_t violations = 0;
  std::size_t endpoints = 0;
  std::uint64_t pairs = 0;
};

RunArtifacts run_once(noise::AnalysisMode mode, int threads, bool tracking) {
  const EnabledGuard guard;
  MemTracker::set_enabled(tracking);
  lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 24;
  cfg.segments = 3;
  cfg.stagger_groups = 4;
  gen::Generated g = gen::make_bus(library, cfg);
  const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
  noise::Options opt;
  opt.mode = mode;
  opt.threads = threads;
  const noise::Result result = noise::analyze(g.design, g.para, timing, opt);

  RunArtifacts out;
  std::ostringstream rs;
  noise::write_report(rs, g.design, opt, result, {});
  out.report = rs.str();
  for (const noise::Violation& v : result.violations) {
    out.explains += noise::explain_string(g.design, opt, result, v.net);
  }
  out.violations = result.violations.size();
  out.endpoints = result.endpoints_checked;
  out.pairs = result.aggressors_considered;
  return out;
}

TEST(MemtrackDeterminism, ResultsByteIdenticalTrackingOnOrOff) {
  const noise::AnalysisMode kModes[] = {noise::AnalysisMode::kNoFiltering,
                                        noise::AnalysisMode::kSwitchingWindows,
                                        noise::AnalysisMode::kNoiseWindows};
  const int kThreads[] = {1, 0};  // serial and all hardware threads
  for (const noise::AnalysisMode mode : kModes) {
    for (const int threads : kThreads) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   " threads " + std::to_string(threads));
      const RunArtifacts on = run_once(mode, threads, true);
      const RunArtifacts off = run_once(mode, threads, false);
      EXPECT_EQ(on.report, off.report);
      EXPECT_EQ(on.explains, off.explains);
      EXPECT_EQ(on.violations, off.violations);
      EXPECT_EQ(on.endpoints, off.endpoints);
      EXPECT_EQ(on.pairs, off.pairs);
      EXPECT_GT(on.violations + on.endpoints, 0u);  // the run did real work
    }
  }
}

// ---------------------------------------------------------------------------
// Teardown balance: a full and an incremental analysis leave every owner
// account where it started (the context slabs and scoped charges unwind).

TEST(MemtrackTeardown, AnalysisAccountsReturnToBaseline) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  const MemAccountId owned[] = {
      MemAccountId::kDesign,         MemAccountId::kParasitics,
      MemAccountId::kSta,            MemAccountId::kAnalysisContext,
      MemAccountId::kKernelBuffers,  MemAccountId::kResult,
      MemAccountId::kSessionCache,   MemAccountId::kUndoJournal,
      MemAccountId::kDaemonQueues,
  };
  std::vector<std::int64_t> before;
  before.reserve(std::size(owned));
  for (const MemAccountId id : owned) {
    before.push_back(MemTracker::account(id).current());
  }
  {
    lib::Library library = lib::default_library();
    gen::Generated g = gen::make_bus(library, {});
    const sta::Result timing = sta::run(g.design, g.para, g.sta_options);
    noise::Options opt;
    opt.mode = noise::AnalysisMode::kNoiseWindows;
    const noise::Result result = noise::analyze(g.design, g.para, timing, opt);
    EXPECT_GT(MemTracker::account(MemAccountId::kKernelBuffers).peak(), 0);
    EXPECT_GT(MemTracker::account(MemAccountId::kAnalysisContext).peak(), 0);
    // An incremental run builds (and must tear down) its own context too.
    const NetId changed[] = {*g.design.find_net("w1")};
    const noise::Result again =
        noise::analyze_incremental(g.design, g.para, timing, opt, result, changed);
    EXPECT_EQ(again.violations.size(), result.violations.size());
  }
  for (std::size_t i = 0; i < std::size(owned); ++i) {
    SCOPED_TRACE(std::string("account ") + obs::to_string(owned[i]));
    EXPECT_EQ(MemTracker::account(owned[i]).current(), before[i]);
  }
}

// ---------------------------------------------------------------------------
// The stats JSON carries the per-account breakdown: a full CLI analysis
// must show at least 6 accounts with nonzero peaks (design, parasitics,
// sta, analysis_context, kernel_buffers, result).

TEST(MemtrackStats, StatsJsonReportsSixNonzeroAccounts) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  const std::string path =
      ::testing::TempDir() + "memtrack_stats_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
      ".json";
  std::ostringstream out;
  std::ostringstream err;
  const std::vector<std::string> args = {"--demo", "bus", "--stats-json", path};
  const int rc = cli::run_cli(args, out, err);
  ASSERT_TRUE(rc == 0 || rc == 2) << err.str();

  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::stringstream buf;
  buf << f.rdbuf();
  const std::optional<session::Json> doc = session::json_parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  const session::Json* mem = doc->find("memory");
  ASSERT_NE(mem, nullptr) << "stats JSON has no memory section";
  ASSERT_NE(mem->find("enabled"), nullptr);
  const session::Json* accounts = mem->find("accounts");
  ASSERT_NE(accounts, nullptr);
  int nonzero = 0;
  for (const auto& [name, acct] : accounts->members()) {
    const session::Json* peak = acct.find("peak_bytes");
    ASSERT_NE(peak, nullptr) << name;
    const session::Json* current = acct.find("current_bytes");
    ASSERT_NE(current, nullptr) << name;
    EXPECT_GE(peak->as_number(), current->as_number()) << name;
    if (peak->as_number() > 0) ++nonzero;
  }
  EXPECT_GE(nonzero, 6) << buf.str();
}

TEST(MemtrackStats, MemoryJsonParsesAndSumsMatch) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  const std::optional<session::Json> doc = session::json_parse(session::memory_json().dump());
  ASSERT_TRUE(doc.has_value());
  std::vector<std::string> keys;
  for (const auto& [k, v] : doc->members()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"enabled", "accounts", "total_current_bytes",
                                            "total_peak_bytes"}));
  const session::Json* accounts = doc->find("accounts");
  ASSERT_NE(accounts, nullptr);
  ASSERT_EQ(accounts->members().size(), obs::kMemAccountCount);
  for (std::size_t i = 0; i < obs::kMemAccountCount; ++i) {
    EXPECT_EQ(accounts->members()[i].first,
              obs::to_string(static_cast<obs::MemAccountId>(i)));
  }
  double sum_current = 0;
  double sum_peak = 0;
  for (const auto& [name, acct] : accounts->members()) {
    sum_current += acct.find("current_bytes")->as_number();
    sum_peak += acct.find("peak_bytes")->as_number();
  }
  EXPECT_EQ(doc->find("total_current_bytes")->as_number(), sum_current);
  EXPECT_EQ(doc->find("total_peak_bytes")->as_number(), sum_peak);
}

TEST(MemtrackStats, MemReportTableRendersEveryAccount) {
  const EnabledGuard guard;
  MemTracker::set_enabled(true);
  std::ostringstream out;
  std::ostringstream err;
  const std::vector<std::string> args = {"--demo", "bus", "--mem-report"};
  const int rc = cli::run_cli(args, out, err);
  ASSERT_TRUE(rc == 0 || rc == 2) << err.str();
  const std::string text = out.str();
  for (const char* name :
       {"design", "parasitics", "sta", "analysis_context", "kernel_buffers",
        "result", "tracked total", "process rss"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace nw
