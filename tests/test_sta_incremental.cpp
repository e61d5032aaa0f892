// Incremental STA: run_incremental() after seeded ECO edit/undo sequences
// equals a fresh run() field by field, `passes` and the sweep bookkeeping
// included, and reports exactly the nets whose timing moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/suite.hpp"
#include "gen/bus.hpp"
#include "gen/randlogic.hpp"
#include "sta/sta.hpp"
#include "sta_designs.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nw::sta {
namespace {

using namespace fixtures;

/// A design under seeded ECO edits, each undoable: the four edit kinds a
/// session offers, applied straight to the design, parasitics and options.
class Editor {
 public:
  Editor(gen::Generated& g, std::uint64_t seed) : g_(g), rng_(seed) {}

  /// One seeded edit, or an undo of the last one; returns the nets whose
  /// parasitics or cells it changed (an arrival edit changes none).
  std::vector<NetId> step(std::string& what) {
    if (!journal_.empty() && rng_.chance(0.25)) {
      Entry e = std::move(journal_.back());
      journal_.pop_back();
      e.restore();
      what = "undo " + e.what;
      return e.nets;
    }
    for (;;) {
      if (std::optional<Entry> e = draw()) {
        what = e->what;
        std::vector<NetId> nets = e->nets;
        journal_.push_back(std::move(*e));
        return nets;
      }
    }
  }

 private:
  struct Entry {
    std::string what;
    std::function<void()> restore;
    std::vector<NetId> nets;
  };

  std::optional<Entry> draw() {
    net::Design& d = g_.design;
    para::Parasitics& para = g_.para;
    const auto random_net = [&] { return NetId{rng_.below(d.net_count())}; };
    Entry e;
    switch (rng_.below(4)) {
      case 0: {
        const NetId n = random_net();
        const para::RcNet saved = para.net(n);
        para.net(n).scale(rng_.uniform(0.3, 3.0), rng_.uniform(0.3, 3.0));
        e.what = "scale " + d.net(n).name;
        e.restore = [&para, n, saved] { para.replace_net(n, saved); };
        e.nets = {n};
        return e;
      }
      case 1: {
        const NetId a = random_net();
        const NetId b = random_net();
        if (a == b) return std::nullopt;
        std::vector<std::pair<std::size_t, double>> existing;
        for (const std::size_t ci : para.couplings_of(a)) {
          if (para.coupling(ci).other_net(a) == b) existing.emplace_back(ci, para.coupling(ci).c);
        }
        e.what = "couple " + d.net(a).name + " " + d.net(b).name;
        if (existing.empty()) {
          para.add_coupling(a, 0, b, 0, rng_.uniform(0.5 * FF, 20 * FF));
          e.restore = [&para] { para.pop_coupling(); };
        } else {
          const double factor = rng_.uniform(0.2, 4.0);
          for (const auto& [ci, v] : existing) para.set_coupling_value(ci, v * factor);
          e.restore = [&para, existing] {
            for (const auto& [ci, v] : existing) para.set_coupling_value(ci, v);
          };
        }
        e.nets = {a, b};
        return e;
      }
      case 2: {
        // Any input port, the clock included: its whole tree replays.
        const PinId p = d.input_ports()[rng_.below(d.input_ports().size())];
        const std::string port = d.pin(p).port_name;
        auto& arrivals = g_.sta_options.input_arrivals;
        std::optional<Interval> old;
        if (const auto it = arrivals.find(port); it != arrivals.end()) old = it->second;
        const double lo = rng_.uniform(0.0, 400 * PS);
        arrivals[port] = Interval{lo, lo + rng_.uniform(0.0, 200 * PS)};
        e.what = "arrival " + port;
        e.restore = [&arrivals, port, old] {
          if (old) {
            arrivals[port] = *old;
          } else {
            arrivals.erase(port);
          }
        };
        return e;
      }
      default: {
        const InstId inst{rng_.below(d.instance_count())};
        const std::string& cell = d.cell_of(inst).name;
        for (const auto& group : kSwapGroups) {
          if (std::find(group.begin(), group.end(), cell) == group.end()) continue;
          const std::string next = group[rng_.below(group.size())];
          const std::string old = d.set_instance_cell(inst, next);
          e.what = "swap " + d.instance(inst).name + " " + old + " -> " + next;
          e.restore = [&d, inst, old] { d.set_instance_cell(inst, old); };
          for (const PinId p : d.instance(inst).pins) {
            if (d.pin(p).net.valid()) e.nets.push_back(d.pin(p).net);
          }
          return e;
        }
        return std::nullopt;
      }
    }
  }

  gen::Generated& g_;
  Rng rng_;
  std::vector<Entry> journal_;
};

/// Nets whose NetTiming differs bitwise between two results.
std::vector<NetId> timing_diff(const Result& a, const Result& b) {
  std::vector<NetId> out;
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    if (!same_bits(a.nets[i].window, b.nets[i].window) ||
        !same_bits(a.nets[i].slew_min, b.nets[i].slew_min) ||
        !same_bits(a.nets[i].slew_max, b.nets[i].slew_max)) {
      out.push_back(NetId{i});
    }
  }
  return out;
}

/// The sweep bookkeeping a later incremental run reads.
std::string bookkeeping_difference(const Result& got, const Result& want) {
  if (got.sweep2_seeds != want.sweep2_seeds) return "sweep2_seeds";
  if (got.sweep1_reached != want.sweep1_reached) return "sweep1_reached";
  if (got.sweep1.size() != want.sweep1.size()) return "sweep1 size";
  for (std::size_t i = 0; i < got.sweep1.size(); ++i) {
    const PinTiming& a = got.sweep1[i].timing;
    const PinTiming& b = want.sweep1[i].timing;
    if (got.sweep1[i].pin != want.sweep1[i].pin || !same_bits(a.rise, b.rise) ||
        !same_bits(a.fall, b.fall) || !same_bits(a.slew_min, b.slew_min) ||
        !same_bits(a.slew_max, b.slew_max)) {
      return "sweep1 entry " + std::to_string(i);
    }
  }
  return "";
}

/// Runs `steps` seeded edits/undos on `g`, re-timing incrementally from the
/// previous result after each and checking it against a fresh run.
void check_edit_sequence(gen::Generated g, std::uint64_t seed, int steps) {
  Editor editor(g, seed);
  Result prev = run(g.design, g.para, g.sta_options);
  std::vector<NetId> pending;  // edited since `prev`
  for (int step = 0; step < steps; ++step) {
    std::string what;
    const std::vector<NetId> nets = editor.step(what);
    pending.insert(pending.end(), nets.begin(), nets.end());
    SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
    std::optional<Result> want;
    std::string want_error;
    try {
      want = run(g.design, g.para, g.sta_options);
    } catch (const std::runtime_error& e) {
      want_error = e.what();
    }
    if (!want) {
      try {
        (void)run_incremental(g.design, g.para, g.sta_options, prev, pending);
        ADD_FAILURE() << "expected: " << want_error;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), want_error);
      }
      continue;
    }
    Update got = run_incremental(g.design, g.para, g.sta_options, prev, pending);
    ASSERT_EQ(first_difference(got.result, *want), "");
    ASSERT_EQ(bookkeeping_difference(got.result, *want), "");
    EXPECT_EQ(got.changed_nets, timing_diff(prev, *want));
    prev = std::move(got.result);
    pending.clear();
  }
}

class StaIncrementalTest : public ::testing::Test {
 protected:
  lib::Library library_ = lib::default_library();
};

TEST_F(StaIncrementalTest, RippleChainsInBothDeclarationOrders) {
  // Reversed declaration makes each stage wait one more sweep: the replay
  // must restore every partial sweep-1 value and the sweep-2 seeds.
  for (const bool reversed : {false, true}) {
    for (const bool toggle : {false, true}) {
      for (const bool open_tap : {false, true}) {
        for (const std::size_t stages : {1u, 3u, 6u}) {
          SCOPED_TRACE(std::to_string(stages) + (reversed ? " reversed" : " forward") +
                       (toggle ? " toggle" : "") + (open_tap ? " tap" : ""));
          check_edit_sequence(make_ripple(library_, {stages, reversed, toggle, open_tap}),
                              stages * 8 + (reversed ? 1 : 0), 16);
        }
      }
    }
  }
}

TEST_F(StaIncrementalTest, ShuffledSequentialDesigns) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_edit_sequence(make_shuffled(library_, seed), seed, 12);
  }
}

TEST_F(StaIncrementalTest, BusAndLogicDesigns) {
  gen::BusConfig bus;
  bus.bits = 12;
  bus.segments = 3;
  check_edit_sequence(gen::make_bus(library_, bus), 7, 20);
  check_edit_sequence(gen::make_rand_logic(library_, bench::logic_config(400)), 11, 20);
}

TEST_F(StaIncrementalTest, ArcLessSwapMovesTheSweepTwoSeeds) {
  // A footprint-compatible cell whose input starts no arc leaves its output
  // unreached in sweep 1. Swapping cb onto it un-reaches b2's output too,
  // and ff — declared first, so it ranks before its own clock buffers and
  // is no load of an edited net — must leave the sweep-2 seeds; swapping
  // back must restore it.
  lib::Library library = lib::default_library();
  lib::Cell open = library.cell(library.find("BUF_X1").value());
  open.name = "BUF_OPEN";
  open.arcs.clear();
  library.add_cell(open);
  net::Design d(library, "open_clock");
  const NetId clk = d.add_net("clk");
  const NetId n1 = d.add_net("n1");
  const NetId ck = d.add_net("ck");
  const NetId data = d.add_net("data");
  const NetId q = d.add_net("q");
  d.add_input_port("clk_in", clk, {150.0, 15 * PS});
  d.add_input_port("d", data, {500.0, 20 * PS});
  const InstId ff = d.add_instance("ff", "DFF_X1");
  const InstId cb = d.add_instance("cb", "BUF_X1");
  const InstId b2 = d.add_instance("b2", "BUF_X1");
  d.connect(cb, "A", clk);
  d.connect(cb, "Y", n1);
  d.connect(b2, "A", n1);
  d.connect(b2, "Y", ck);
  d.connect(ff, "CK", ck);
  d.connect(ff, "D", data);
  d.connect(ff, "Q", q);
  d.add_output_port("out", q);
  para::Parasitics para(d.net_count());
  for (std::size_t i = 0; i < d.net_count(); ++i) para.net(NetId{i}).add_cap(0, 2 * FF);
  Options opt;
  opt.clock_port = "clk_in";

  Result prev = run(d, para, opt);
  ASSERT_EQ(prev.sweep2_seeds, std::vector<std::uint32_t>{0});
  const std::vector<NetId> edited{clk, n1};
  for (const char* cell : {"BUF_OPEN", "BUF_X1"}) {
    SCOPED_TRACE(cell);
    d.set_instance_cell(cb, cell);
    Update got = run_incremental(d, para, opt, prev, edited);
    const Result want = run(d, para, opt);
    EXPECT_EQ(first_difference(got.result, want), "");
    EXPECT_EQ(bookkeeping_difference(got.result, want), "");
    EXPECT_EQ(got.changed_nets, timing_diff(prev, want));
    prev = std::move(got.result);
  }
  EXPECT_EQ(prev.sweep2_seeds, std::vector<std::uint32_t>{0});
}

TEST_F(StaIncrementalTest, NothingEditedReproducesTheBase) {
  const gen::Generated g = make_ripple(library_, {6, true, true, true});
  const Result base = run(g.design, g.para, g.sta_options);
  const Update up = run_incremental(g.design, g.para, g.sta_options, base, {});
  EXPECT_EQ(first_difference(up.result, base), "");
  EXPECT_TRUE(up.changed_nets.empty());
}

TEST_F(StaIncrementalTest, RejectsMismatchedBaseAndOutOfRangeNets) {
  const gen::Generated g = make_ripple(library_, {3, false});
  const gen::Generated other = make_ripple(library_, {4, false});
  const Result base = run(g.design, g.para, g.sta_options);
  const Result other_base = run(other.design, other.para, other.sta_options);
  EXPECT_THROW((void)run_incremental(g.design, g.para, g.sta_options, other_base, {}),
               std::invalid_argument);
  const std::vector<NetId> outside{NetId{g.design.net_count()}};
  try {
    (void)run_incremental(g.design, g.para, g.sta_options, base, outside);
    FAIL() << "expected an out-of-range error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(g.design.net_count())),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace nw::sta
