// Cell model: pins, timing arcs, drive/holding resistance, and the noise
// data static noise analysis consumes — immunity curves and propagation
// tables.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "library/table.hpp"

namespace nw::lib {

enum class PinDir { kInput, kOutput };

/// Pin roles for sequential cells; combinational pins are kNone.
enum class PinRole { kNone, kClock, kData, kEnable };

struct Pin {
  std::string name;
  PinDir dir = PinDir::kInput;
  PinRole role = PinRole::kNone;
  double cap = 0.0;  ///< input pin capacitance [F] (0 for outputs)
};

/// Arc sense: how an input transition relates to the output transition.
enum class ArcSense { kPositiveUnate, kNegativeUnate, kNonUnate };

/// A combinational (or clock->output) timing arc with NLDM tables indexed
/// by (input slew [s], output load [F]).
struct TimingArc {
  std::size_t from_pin = 0;
  std::size_t to_pin = 0;
  ArcSense sense = ArcSense::kNegativeUnate;
  Table2D delay_rise;   ///< output-rise delay
  Table2D delay_fall;   ///< output-fall delay
  Table2D slew_rise;    ///< output-rise transition time
  Table2D slew_fall;    ///< output-fall transition time
};

/// Noise immunity of a cell input: the minimum glitch peak [V] that can
/// upset the gate, as a function of glitch width [s]. Narrow glitches are
/// filtered by the gate's inertia, so the curve decreases with width and
/// asymptotes to the DC noise margin.
struct NoiseImmunity {
  Table1D threshold_vs_width;

  [[nodiscard]] double threshold(double width) const {
    return threshold_vs_width.lookup(width);
  }
};

/// Noise transfer through a cell: for an input glitch (peak [V], width [s]),
/// the output glitch peak [V] and width [s]. Both tables are indexed
/// (peak, width) and must be monotone non-decreasing in both arguments.
struct NoisePropagation {
  Table2D out_peak;
  Table2D out_width;
};

enum class CellKind { kCombinational, kDff, kLatch };

/// A library cell. Invariants: exactly one output pin for combinational
/// cells; sequential cells have data/clock(/enable) roles assigned.
struct Cell {
  std::string name;
  CellKind kind = CellKind::kCombinational;
  std::vector<Pin> pins;
  std::vector<TimingArc> arcs;

  double drive_resistance = 0.0;    ///< switching output resistance [ohm]
  double holding_resistance = 0.0;  ///< quiet-state output resistance [ohm]

  NoiseImmunity immunity;           ///< applies to every input pin
  NoisePropagation propagation;     ///< input glitch -> output glitch

  /// Sequential-only: setup/hold around the clock edge [s]. The latch
  /// sensitivity window for noise is [t_clk - setup, t_clk + hold].
  double setup = 0.0;
  double hold = 0.0;

  [[nodiscard]] std::optional<std::size_t> find_pin(std::string_view pin_name) const {
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (pins[i].name == pin_name) return i;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool is_sequential() const noexcept {
    return kind != CellKind::kCombinational;
  }
};

}  // namespace nw::lib
