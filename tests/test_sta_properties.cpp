// STA soundness properties over randomized designs (TEST_P sweeps).
#include <gtest/gtest.h>

#include "gen/randlogic.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nw::sta {
namespace {

class StaProperty : public ::testing::TestWithParam<int> {
 protected:
  gen::RandLogicConfig config() const {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 409 + 3);
    gen::RandLogicConfig cfg;
    cfg.primary_inputs = 8 + rng.below(12);
    cfg.gates = 80 + rng.below(200);
    cfg.levels = 3 + rng.below(5);
    cfg.dff_fraction = rng.chance(0.5) ? 0.3 : 0.0;
    cfg.seed = rng.next();
    return cfg;
  }
};

TEST_P(StaProperty, WideningInputsWidensEveryWindow) {
  // Monotonicity: growing an input arrival window can never shrink any
  // net's switching window — the soundness property temporal noise
  // filtering rests on.
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_rand_logic(library, config());

  const Result base = run(g.design, g.para, g.sta_options);

  Options widened = g.sta_options;
  for (auto& [port, win] : widened.input_arrivals) {
    win = win.dilated(20 * PS, 60 * PS);
  }
  const Result wide = run(g.design, g.para, widened);

  for (std::size_t i = 0; i < g.design.net_count(); ++i) {
    const Interval& b = base.nets[i].window;
    const Interval& w = wide.nets[i].window;
    if (b.is_empty()) continue;
    ASSERT_FALSE(w.is_empty()) << g.design.net(NetId{i}).name;
    EXPECT_TRUE(w.intersect(b) == b) << g.design.net(NetId{i}).name << " base=" << b.str()
                                     << " wide=" << w.str();
  }
}

TEST_P(StaProperty, SlacksMonotoneInPeriod) {
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_rand_logic(library, config());
  Options o = g.sta_options;
  o.clock_period = 1e-9;
  const Result fast = run(g.design, g.para, o);
  o.clock_period = 3e-9;
  const Result slow = run(g.design, g.para, o);
  ASSERT_EQ(fast.endpoints.size(), slow.endpoints.size());
  for (std::size_t i = 0; i < fast.endpoints.size(); ++i) {
    const Endpoint& s = slow.endpoints[i];
    const Endpoint& f = fast.endpoints[i];
    EXPECT_GE(s.required - s.arrival, f.required - f.arrival - 1e-15);
  }
}

TEST_P(StaProperty, ArrivalsRespectTopologicalOrder) {
  // A combinational gate's output window never starts before the earliest
  // input window it depends on (delays are positive).
  const lib::Library library = lib::default_library();
  const gen::Generated g = gen::make_rand_logic(library, config());
  const Result r = run(g.design, g.para, g.sta_options);

  for (std::size_t ii = 0; ii < g.design.instance_count(); ++ii) {
    const InstId inst_id{ii};
    const lib::Cell& cell = g.design.cell_of(inst_id);
    if (cell.is_sequential()) continue;
    const net::Instance& inst = g.design.instance(inst_id);

    double earliest_in = 1e30;
    Interval out_win = Interval::empty();
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      const net::Pin& p = g.design.pin(inst.pins[pi]);
      if (!p.net.valid()) continue;
      const Interval& w = r.nets[p.net.index()].window;
      if (cell.pins[pi].dir == lib::PinDir::kInput) {
        if (!w.is_empty()) earliest_in = std::min(earliest_in, w.lo);
      } else {
        out_win = w;
      }
    }
    if (out_win.is_empty() || earliest_in >= 1e30) continue;
    EXPECT_GT(out_win.lo, earliest_in) << inst.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace nw::sta
