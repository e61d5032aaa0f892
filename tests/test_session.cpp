// Session engine: ECO edits, incremental invalidation, undo, result cache.
//
// The load-bearing property: after ANY edit sequence, a session query is
// bit-identical to a fresh full analyze() of the edited design — while the
// session itself ran exactly one full analysis (everything after is
// incremental). Checked across all three analysis modes and two thread
// counts, leaning on the analyzer's own determinism guarantee.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/suite.hpp"
#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "session/session.hpp"
#include "sta/sta.hpp"
#include "sta_designs.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nw::session {
namespace {

gen::Generated make_demo() {
  static const lib::Library library = lib::default_library();
  gen::BusConfig cfg;
  cfg.bits = 12;
  cfg.segments = 3;
  return gen::make_bus(library, cfg);
}

Session make_session(SessionConfig cfg = {}) {
  gen::Generated g = make_demo();
  cfg.sta = g.sta_options;
  cfg.noise.clock_period = g.sta_options.clock_period;
  return Session(std::move(g.design), std::move(g.para), std::move(cfg));
}

/// Bitwise comparison of two Results (exact doubles — the analyzer's
/// cross-thread guarantee, which incremental re-analysis must preserve).
void expect_bit_identical(const noise::Result& a, const noise::Result& b) {
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    const noise::NetNoise& x = a.nets[i];
    const noise::NetNoise& y = b.nets[i];
    EXPECT_EQ(x.injected_peak, y.injected_peak) << "net " << i;
    EXPECT_EQ(x.propagated_peak, y.propagated_peak) << "net " << i;
    EXPECT_EQ(x.total_peak, y.total_peak) << "net " << i;
    EXPECT_EQ(x.width, y.width) << "net " << i;
    EXPECT_EQ(x.aggressor_count, y.aggressor_count) << "net " << i;
    EXPECT_EQ(x.filtered_temporal, y.filtered_temporal) << "net " << i;
    ASSERT_EQ(x.window.count(), y.window.count()) << "net " << i;
    for (std::size_t w = 0; w < x.window.count(); ++w) {
      EXPECT_EQ(x.window[w].lo, y.window[w].lo);
      EXPECT_EQ(x.window[w].hi, y.window[w].hi);
    }
    ASSERT_EQ(x.contributions.size(), y.contributions.size()) << "net " << i;
    for (std::size_t c = 0; c < x.contributions.size(); ++c) {
      const noise::Contribution& cx = x.contributions[c];
      const noise::Contribution& cy = y.contributions[c];
      EXPECT_EQ(cx.peak, cy.peak);
      EXPECT_EQ(cx.width, cy.width);
      EXPECT_EQ(cx.aggressor, cy.aggressor);
      EXPECT_EQ(cx.from_net, cy.from_net);
      EXPECT_EQ(cx.in_worst, cy.in_worst);
      EXPECT_EQ(cx.window, cy.window) << "net " << i;
    }
  }
  ASSERT_EQ(a.violations.size(), b.violations.size());
  ASSERT_EQ(a.provenance.size(), b.provenance.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].endpoint, b.violations[i].endpoint);
    EXPECT_EQ(a.violations[i].peak, b.violations[i].peak);
    EXPECT_EQ(a.violations[i].threshold, b.violations[i].threshold);
    EXPECT_EQ(a.violations[i].sensitivity, b.violations[i].sensitivity);
    const noise::Provenance& px = a.provenance[i];
    const noise::Provenance& py = b.provenance[i];
    EXPECT_EQ(px.peak_in_sensitivity, py.peak_in_sensitivity);
    EXPECT_EQ(px.culled_by, py.culled_by);
    ASSERT_EQ(px.shares.size(), py.shares.size()) << "violation " << i;
    for (std::size_t k = 0; k < px.shares.size(); ++k) {
      EXPECT_EQ(px.shares[k].aggressor, py.shares[k].aggressor);
      EXPECT_EQ(px.shares[k].coupling_cap, py.shares[k].coupling_cap);
      EXPECT_EQ(px.shares[k].verdict, py.shares[k].verdict);
    }
    ASSERT_EQ(px.path.size(), py.path.size()) << "violation " << i;
    for (std::size_t k = 0; k < px.path.size(); ++k) {
      EXPECT_EQ(px.path[k].net, py.path[k].net);
      EXPECT_EQ(px.path[k].peak, py.path[k].peak);
    }
  }
  EXPECT_EQ(a.noisy, b.noisy);
  EXPECT_EQ(a.noisy_nets, b.noisy_nets);
  EXPECT_EQ(a.endpoints_checked, b.endpoints_checked);
  EXPECT_EQ(a.aggressors_considered, b.aggressors_considered);
  EXPECT_EQ(a.aggressors_filtered_temporal, b.aggressors_filtered_temporal);
  ASSERT_EQ(a.endpoint_slacks.size(), b.endpoint_slacks.size());
  for (std::size_t i = 0; i < a.endpoint_slacks.size(); ++i) {
    EXPECT_EQ(a.endpoint_slacks[i], b.endpoint_slacks[i]);
  }
}

/// A fresh, independent full analysis of the session's (edited) state.
noise::Result full_reference(Session& s) {
  sta::Options sta_opt = s.sta_options();
  sta_opt.clock_period = s.noise_options().clock_period;
  const sta::Result timing = sta::run(s.design(), s.parasitics(), sta_opt);
  return noise::analyze(s.design(), s.parasitics(), timing, s.noise_options());
}

/// The scripted edit sequence used by the property test: every edit kind.
void apply_edit_script(Session& s) {
  s.scale_net_parasitics("w3", 1.8, 1.3);
  s.set_driver_cell("rx5_0", "INV_X4");
  s.set_coupling_cap("w1", "w2", 40 * FF);
  s.set_arrival_window("in2", Interval{50 * PS, 180 * PS});
  s.set_coupling_cap("w7", "w9", 15 * FF);  // previously uncoupled pair (2nd-nbr off)
  s.scale_net_parasitics("w0", 0.5, 0.9);
}

TEST(Session, EditSequenceMatchesFreshFullAnalysis) {
  // The acceptance property: N edits -> one query == fresh full analyze(),
  // bit for bit, with exactly 1 full analysis inside the session.
  for (const noise::AnalysisMode mode :
       {noise::AnalysisMode::kNoFiltering, noise::AnalysisMode::kSwitchingWindows,
        noise::AnalysisMode::kNoiseWindows}) {
    for (const int threads : {1, 4}) {
      SessionConfig cfg;
      cfg.noise.mode = mode;
      cfg.noise.threads = threads;
      Session s = make_session(cfg);

      (void)s.result();  // baseline: the one and only full analysis
      apply_edit_script(s);
      const noise::Result& got = s.result();

      SCOPED_TRACE(std::string("mode=") + noise::to_string(mode) +
                   " threads=" + std::to_string(threads));
      expect_bit_identical(got, full_reference(s));
      EXPECT_EQ(s.full_analyses(), 1u);
      EXPECT_EQ(s.incremental_analyses(), 1u);
    }
  }
}

TEST(Session, InterleavedQueriesStayIncrementalAndIdentical) {
  // Query between every edit: each one must re-analyze incrementally and
  // every intermediate state must match its own fresh full run.
  Session s = make_session();
  (void)s.result();
  s.scale_net_parasitics("w4", 2.5, 1.0);
  expect_bit_identical(s.result(), full_reference(s));
  s.set_driver_cell("rx4_0", "INV_X2");
  expect_bit_identical(s.result(), full_reference(s));
  s.set_arrival_window("in4", Interval{0.0, 300 * PS});
  expect_bit_identical(s.result(), full_reference(s));
  EXPECT_EQ(s.full_analyses(), 1u);
  EXPECT_EQ(s.incremental_analyses(), 3u);
}

TEST(Session, RepeatedQueryIsFree) {
  Session s = make_session();
  const noise::Result* first = &s.result();
  const noise::Result* second = &s.result();
  EXPECT_EQ(first, second);  // same object, no new analysis
  EXPECT_EQ(s.full_analyses(), 1u);
  EXPECT_EQ(s.cache_misses(), 1u);
}

TEST(Session, UndoRestoresBitIdenticalResultFromCache) {
  Session s = make_session();
  const noise::Result& before = s.result();
  const std::uint64_t epoch0 = s.epoch();
  const noise::Result snapshot = before;  // copy: `before` ref may be swapped

  s.set_coupling_cap("w2", "w3", 60 * FF);
  const noise::Result& after = s.result();
  EXPECT_NE(after.net(*s.design().find_net("w2")).total_peak,
            snapshot.net(*s.design().find_net("w2")).total_peak);

  ASSERT_TRUE(s.undo());
  EXPECT_EQ(s.epoch(), epoch0);
  const noise::Result& restored = s.result();
  expect_bit_identical(restored, snapshot);
  EXPECT_GE(s.cache_hits(), 1u);   // pre-edit result came back from cache
  EXPECT_EQ(s.full_analyses(), 1u);
}

TEST(Session, UndoEveryEditKindRestoresState) {
  Session s = make_session();
  const noise::Result snapshot = s.result();
  const std::uint64_t epoch0 = s.epoch();

  apply_edit_script(s);
  s.set_constraint_group(std::vector<std::string>{"w10", "w11"});
  s.set_option("mode", "switching-windows");
  (void)s.result();

  while (s.undo()) {
  }
  EXPECT_EQ(s.epoch(), epoch0);
  EXPECT_EQ(s.undo_depth(), 0u);
  expect_bit_identical(s.result(), snapshot);
  // And against an independent full run of the restored state.
  expect_bit_identical(s.result(), full_reference(s));
}

TEST(Session, UndoJournalIsBounded) {
  SessionConfig cfg;
  cfg.undo_capacity = 3;
  Session s = make_session(cfg);
  for (int i = 0; i < 6; ++i) {
    s.scale_net_parasitics("w1", 1.1, 1.0);
  }
  EXPECT_EQ(s.undo_depth(), 3u);
  EXPECT_TRUE(s.undo());
  EXPECT_TRUE(s.undo());
  EXPECT_TRUE(s.undo());
  EXPECT_FALSE(s.undo());  // older edits fell off the ring
}

TEST(Session, OptionChangeRunsFullUndoHitsCache) {
  Session s = make_session();
  (void)s.result();
  EXPECT_EQ(s.full_analyses(), 1u);

  s.set_option("mode", "no-filtering");
  (void)s.result();
  EXPECT_EQ(s.full_analyses(), 2u);  // new digest: incremental reuse is invalid

  ASSERT_TRUE(s.undo());             // back to the original options
  (void)s.result();
  EXPECT_EQ(s.full_analyses(), 2u);  // served from cache
  EXPECT_GE(s.cache_hits(), 1u);
}

TEST(Session, ThreadsOptionNeverInvalidates) {
  Session s = make_session();
  const noise::Result* r1 = &s.result();
  s.set_option("threads", "4");
  const noise::Result* r2 = &s.result();
  EXPECT_EQ(r1, r2);  // identical-results guarantee: nothing recomputed
  EXPECT_EQ(s.full_analyses(), 1u);
  EXPECT_EQ(s.cache_misses(), 1u);
}

TEST(Session, RefineOptionForcesFullAnalyses) {
  Session s = make_session();
  s.set_option("refine", "2");
  (void)s.result();
  s.scale_net_parasitics("w2", 1.5, 1.0);
  (void)s.result();
  // analyze_incremental ignores refine_iterations, so the session must not
  // use it while refinement is on.
  EXPECT_EQ(s.full_analyses(), 2u);
  EXPECT_EQ(s.incremental_analyses(), 0u);
}

TEST(Session, FailedEditsLeaveStateUntouched) {
  Session s = make_session();
  const noise::Result snapshot = s.result();
  const std::uint64_t epoch0 = s.epoch();

  EXPECT_THROW(s.scale_net_parasitics("no_such_net", 2.0, 1.0), NotFound);
  EXPECT_THROW(s.scale_net_parasitics("w1", -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(s.set_driver_cell("no_such_inst", "INV_X2"), NotFound);
  EXPECT_THROW(s.set_driver_cell("rx1_0", "NAND2_X1"), std::invalid_argument);
  EXPECT_THROW(s.set_coupling_cap("w1", "w1", 1 * FF), std::invalid_argument);
  EXPECT_THROW(s.set_coupling_cap("w1", "w2", -1 * FF), std::invalid_argument);
  EXPECT_THROW(s.set_arrival_window("no_such_port", Interval{0, 1e-10}), NotFound);
  EXPECT_THROW(s.set_arrival_window("in1", Interval{1e-10, 0}), std::invalid_argument);
  EXPECT_THROW(s.set_option("mode", "bogus"), std::invalid_argument);
  EXPECT_THROW(s.set_option("bogus", "1"), std::invalid_argument);
  EXPECT_THROW(s.set_constraint_group(std::vector<std::string>{}),
               std::invalid_argument);

  EXPECT_EQ(s.epoch(), epoch0);
  EXPECT_EQ(s.undo_depth(), 0u);
  expect_bit_identical(s.result(), snapshot);

  // Shared base: a rejected edit must not materialize the copy-on-write
  // overlay, or in the daemon every failed request would copy the design
  // or the parasitics. NaN passes `<= 0` checks, so it is tried on every
  // value.
  gen::Generated g = make_demo();
  SessionConfig cfg;
  cfg.sta = g.sta_options;
  cfg.noise.clock_period = g.sta_options.clock_period;
  Session shared(std::make_shared<const net::Design>(std::move(g.design)),
                 std::make_shared<const para::Parasitics>(std::move(g.para)), cfg);
  const noise::Result shared_snapshot = shared.result();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  for (const double bad : {nan, inf, -1.0, 0.0}) {
    SCOPED_TRACE(bad);
    try {
      shared.scale_net_parasitics("w1", bad, 1.0);
      ADD_FAILURE() << "accepted cap factor";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'w1'"), std::string::npos) << e.what();
    }
    EXPECT_THROW(shared.scale_net_parasitics("w1", 1.0, bad), std::invalid_argument);
    for (const char* other : {"w2", "w9"}) {  // coupled, and not yet coupled
      try {
        shared.set_coupling_cap("w1", other, bad);
        ADD_FAILURE() << "accepted cap";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(other), std::string::npos) << e.what();
      }
    }
  }
  EXPECT_THROW(shared.set_driver_cell("rx1_0", "NAND2_X1"), std::invalid_argument);
  EXPECT_THROW(shared.set_driver_cell("rx1_0", "NO_SUCH_CELL"), std::invalid_argument);
  EXPECT_TRUE(shared.shares_base());
  EXPECT_EQ(shared.undo_depth(), 0u);
  EXPECT_EQ(shared.registry().counter(Session::kMetricCowCopies, "").value(), 0u);
  expect_bit_identical(shared.result(), shared_snapshot);

  shared.set_driver_cell("rx1_0", "INV_X2");  // an accepted edit copies, once
  EXPECT_FALSE(shared.shares_base());
  expect_bit_identical(shared.result(), full_reference(shared));
}

TEST(Session, NonFiniteArrivalAndPeriodRejected) {
  // NaN passes both `lo > hi` and `<= 0`: accepted, a NaN arrival edge hung
  // the next analysis and a NaN period moved every sensitivity window.
  Session s = make_session();
  const noise::Result snapshot = s.result();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Interval w : {Interval{nan, 1e-10}, Interval{0.0, nan}, Interval{-inf, 0.0},
                           Interval{0.0, inf}}) {
    EXPECT_THROW(s.set_arrival_window("in0", w), std::invalid_argument);
  }
  for (const char* period : {"nan", "inf", "-inf"}) {
    EXPECT_THROW(s.set_option("period", period), std::invalid_argument) << period;
  }
  EXPECT_EQ(s.epoch(), 0u);
  expect_bit_identical(s.result(), snapshot);
}

TEST(Session, SetOptionRejectsMalformedValuesNamingThem) {
  Session s = make_session();
  const auto message = [&](const char* name, const char* value) {
    try {
      s.set_option(name, value);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message("mode", "bogus"),
            "set_option mode: 'bogus' (expected no-filtering | switching-windows | "
            "noise-windows)");
  EXPECT_EQ(message("model", "spice"),
            "set_option model: 'spice' (expected charge-sharing | devgan | two-pi | "
            "reduced-mna | mna-exact)");
  for (const char* v : {"x", "-1", "1025", "2.5", "99999999999999999999999"}) {
    EXPECT_EQ(message("threads", v),
              "set_option threads: '" + std::string(v) + "' (expected an integer in [0, 1024])");
  }
  EXPECT_EQ(message("refine", "65"),
            "set_option refine: '65' (expected an integer in [0, 64])");
  for (const char* v : {"abc", "0", "-1e-9", "1e999", "1ns"}) {
    EXPECT_EQ(message("period", v), "set_option period: '" + std::string(v) +
                                         "' (expected a positive number of seconds)");
  }
  EXPECT_EQ(s.undo_depth(), 0u);
  s.set_option("threads", "2");
  s.set_option("refine", "0");
  s.set_option("period", "2e-9");
  EXPECT_EQ(s.noise_options().threads, 2);
  EXPECT_EQ(s.noise_options().refine_iterations, 0);
  EXPECT_EQ(s.noise_options().clock_period, 2e-9);
}

TEST(Session, ConstraintGroupIsAtomicOnFailure) {
  Session s = make_session();
  EXPECT_EQ(s.set_constraint_group(std::vector<std::string>{"w1", "w2"}), 0);
  // w2 is already grouped: the whole edit must be rejected, leaving w5
  // ungrouped (no half-applied constraint set).
  EXPECT_THROW(s.set_constraint_group(std::vector<std::string>{"w5", "w2"}),
               std::invalid_argument);
  EXPECT_EQ(s.noise_options().constraints.group_of(*s.design().find_net("w5")), -1);
  // The failed attempt consumed nothing (applied on a discarded copy).
  EXPECT_EQ(s.set_constraint_group(std::vector<std::string>{"w5", "w6"}), 1);
}

TEST(Session, EndpointSlacksAreSortedAndComplete) {
  Session s = make_session();
  const std::vector<EndpointSlack> slacks = s.endpoint_slacks();
  ASSERT_EQ(slacks.size(), s.result().endpoint_slacks.size());
  for (std::size_t i = 1; i < slacks.size(); ++i) {
    EXPECT_LE(slacks[i - 1].slack, slacks[i].slack);
  }
  for (const EndpointSlack& e : slacks) {
    EXPECT_FALSE(e.endpoint.empty());
    EXPECT_FALSE(e.net.empty());
  }
}

/// Seeded edits of all four kinds plus undo, by name, on one session; each
/// step's query must equal a fresh full analysis of the edited state.
void check_random_edits(Session& s, std::uint64_t seed, int steps) {
  Rng rng(seed);
  const net::Design& d = s.design();
  const auto net_name = [&] { return d.net(NetId{rng.below(d.net_count())}).name; };
  (void)s.result();
  for (int step = 0; step < steps; ++step) {
    std::string what;
    if (s.undo_depth() > 0 && rng.chance(0.25)) {
      ASSERT_TRUE(s.undo());
      what = "undo";
    } else {
      switch (rng.below(4)) {
        case 0: {
          const std::string n = net_name();
          what = "scale " + n;
          s.scale_net_parasitics(n, rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0));
          break;
        }
        case 1: {
          const std::string a = net_name();
          const std::string b = net_name();
          if (a == b) continue;
          what = "couple " + a + " " + b;
          s.set_coupling_cap(a, b, rng.uniform(0.5 * FF, 30 * FF));
          break;
        }
        case 2: {
          const PinId p = d.input_ports()[rng.below(d.input_ports().size())];
          const double lo = rng.uniform(0.0, 400 * PS);
          what = "arrival " + d.pin(p).port_name;
          s.set_arrival_window(d.pin(p).port_name,
                               Interval{lo, lo + rng.uniform(0.0, 200 * PS)});
          break;
        }
        default: {
          const InstId inst{rng.below(d.instance_count())};
          for (const auto& group : sta::fixtures::kSwapGroups) {
            if (std::find(group.begin(), group.end(), d.cell_of(inst).name) == group.end()) {
              continue;
            }
            const std::string cell = group[rng.below(group.size())];
            what = "swap " + d.instance(inst).name + " " + cell;
            s.set_driver_cell(d.instance(inst).name, cell);
            break;
          }
          if (what.empty()) continue;
        }
      }
    }
    SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
    expect_bit_identical(s.result(), full_reference(s));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(s.full_analyses(), 1u);
  EXPECT_GT(s.incremental_analyses(), 0u);
}

Session make_session_from(gen::Generated g, SessionConfig cfg = {}) {
  cfg.sta = g.sta_options;
  cfg.noise.clock_period = g.sta_options.clock_period;
  return Session(std::move(g.design), std::move(g.para), std::move(cfg));
}

TEST(Session, RandomEditUndoSequencesMatchFullReference) {
  static const lib::Library library = lib::default_library();
  for (const noise::AnalysisMode mode :
       {noise::AnalysisMode::kNoiseWindows, noise::AnalysisMode::kNoFiltering}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string("bus demo, ") + noise::to_string(mode) + ", threads " +
                   std::to_string(threads));
      SessionConfig cfg;
      cfg.noise.mode = mode;
      cfg.noise.threads = threads;
      Session s = make_session(cfg);
      check_random_edits(s, 1, 24);
    }
  }
  {
    SCOPED_TRACE("logic");
    Session s = make_session_from(gen::make_rand_logic(library, bench::logic_config(300)));
    check_random_edits(s, 2, 24);
  }
  // Ripple dividers in both declaration orders: reversed, every stage's
  // launch waits one more STA sweep, so the incremental STA replays sweep 1.
  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "ripple reversed" : "ripple forward");
    gen::Generated g = sta::fixtures::make_ripple(library, {5, reversed, /*toggle=*/true});
    for (std::size_t i = 0; i < g.design.net_count(); ++i) {
      for (std::size_t j = i + 1; j < g.design.net_count(); j += 2) {
        g.para.add_coupling(NetId{i}, 0, NetId{j}, 0, 3 * FF);
      }
    }
    Session s = make_session_from(std::move(g));
    check_random_edits(s, reversed ? 4 : 3, 24);
  }
}

TEST(Session, CacheBytesGaugeEqualsAFullWalk) {
  // The gauge sums byte figures memoized per cache entry; after every kind
  // of cache change it must equal a walk over every cached result.
  SessionConfig cfg;
  cfg.cache_capacity = 2;
  Session s = make_session(cfg);
  const auto gauge = [&] {
    return s.metrics_snapshot().find(Session::kMetricCacheBytes)->value;
  };
  const auto expect_walk = [&](const char* when) {
    EXPECT_EQ(gauge(), static_cast<double>(s.cache_bytes_recount())) << when;
  };
  (void)s.result();
  expect_walk("insert");
  s.scale_net_parasitics("w1", 1.5, 1.0);
  (void)s.result();
  expect_walk("second insert");
  s.set_coupling_cap("w2", "w3", 30 * FF);
  (void)s.result();
  expect_walk("eviction");
  ASSERT_TRUE(s.undo());
  expect_walk("undo");
  const std::uint64_t hits = s.cache_hits();
  (void)s.result();
  EXPECT_EQ(s.cache_hits(), hits + 1);
  expect_walk("cache hit");
}

TEST(Session, ResultCacheIsBounded) {
  SessionConfig cfg;
  cfg.cache_capacity = 2;
  Session s = make_session(cfg);
  (void)s.result();
  for (int i = 0; i < 4; ++i) {
    s.scale_net_parasitics("w1", 1.2, 1.0);
    (void)s.result();
  }
  const obs::MetricsSnapshot snap = s.metrics_snapshot();
  const obs::MetricSample* cached = snap.find(Session::kMetricCachedResults);
  ASSERT_NE(cached, nullptr);
  EXPECT_LE(cached->value, 2.0);
}

TEST(Session, MetricsExposeDirtySetSizes) {
  Session s = make_session();
  (void)s.result();
  s.set_coupling_cap("w1", "w2", 25 * FF);
  (void)s.result();
  const obs::MetricsSnapshot snap = s.metrics_snapshot();
  const obs::MetricSample* hist = snap.find(Session::kMetricDirtyNets);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 1u);
  EXPECT_GE(hist->hist.sum, 2.0);  // at least the two edited nets
}

TEST(Session, EpochStampsResults) {
  Session s = make_session();
  EXPECT_EQ(s.result().epoch, 0u);
  s.scale_net_parasitics("w1", 1.5, 1.0);
  EXPECT_EQ(s.result().epoch, 1u);
  ASSERT_TRUE(s.undo());
  EXPECT_EQ(s.result().epoch, 0u);
}

TEST(Session, TraceAndRequireValidation) {
  Session s = make_session();
  EXPECT_THROW((void)s.require_net("nope"), NotFound);
  EXPECT_THROW((void)s.require_instance("nope"), NotFound);
  EXPECT_THROW((void)noise::trace_origin(s.result(), NetId{999999}),
               std::invalid_argument);
  const NetId w1 = s.require_net("w1");
  const noise::NoiseTrace tr = noise::trace_origin(s.result(), w1);  // any net
  if (!tr.path.empty()) EXPECT_EQ(tr.path.front().net, w1);
}

TEST(Session, ResourceGaugesTrackCacheAndJournal) {
  Session s = make_session();
  (void)s.result();  // populate the result cache
  s.scale_net_parasitics("w1", 1.5, 1.0);  // leave one journal entry live

  const obs::MetricsSnapshot snap = s.metrics_snapshot();
  for (const char* name : {Session::kMetricRssBytes, Session::kMetricPeakRssBytes,
                           Session::kMetricCacheBytes, Session::kMetricJournalBytes}) {
    SCOPED_TRACE(name);
    const obs::MetricSample* g = snap.find(name);
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(g->resource);       // lands in the "resources" section
    EXPECT_FALSE(g->deterministic); // never in the bit-identical sections
    EXPECT_GT(g->value, 0.0);
  }
  EXPECT_GE(snap.find(Session::kMetricPeakRssBytes)->value,
            snap.find(Session::kMetricRssBytes)->value);

  // Undoing the edit empties the journal; the gauge follows on re-snapshot.
  ASSERT_TRUE(s.undo());
  const obs::MetricsSnapshot after = s.metrics_snapshot();
  EXPECT_EQ(after.find(Session::kMetricJournalBytes)->value, 0.0);
}

TEST(Session, MismatchedParasiticsRejected) {
  gen::Generated g = make_demo();
  para::Parasitics wrong(g.design.net_count() + 5);
  EXPECT_THROW(Session(std::move(g.design), std::move(wrong), SessionConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nw::session
