// The cell library: cell storage/lookup plus a generated default library.
//
// No proprietary liberty data is available offline, so `default_library()`
// characterizes a small standard-cell set from a parameterized first-order
// CMOS model (documented in DESIGN.md as a substitution). The shapes —
// delay vs load, immunity vs width, propagation gain vs peak — follow the
// standard characterization forms; absolute values are representative of a
// ~130 nm node (the DAC 2003 era).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "library/cell.hpp"
#include "util/strings.hpp"

namespace nw::lib {

/// Knobs for the generated default library.
struct TechParams {
  double vdd = 1.2;                 ///< supply [V]
  double vth_frac = 0.45;           ///< switching threshold as fraction of vdd
  double base_drive_res = 2.5e3;    ///< X1 drive resistance [ohm]
  double hold_res_factor = 1.2;     ///< holding = factor * drive
  double input_cap = 2e-15;         ///< X1 input pin cap [F]
  double intrinsic_delay = 15e-12;  ///< X1 parasitic delay [s]
  double immunity_tau = 60e-12;     ///< immunity curve time constant [s]
  double dc_margin_frac = 0.42;     ///< wide-glitch immunity as fraction of vdd
  double prop_sharpness = 0.12;     ///< propagation sigmoid sharpness (fraction of vdd)
};

class Library {
 public:
  Library() = default;
  explicit Library(std::string name, double vdd) : name_(std::move(name)), vdd_(vdd) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] double vdd() const noexcept { return vdd_; }
  void set_vdd(double v) noexcept { vdd_ = v; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Add a cell; throws std::invalid_argument on duplicate name.
  std::size_t add_cell(Cell cell);

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }
  [[nodiscard]] const Cell& cell(std::size_t i) const { return cells_.at(i); }
  [[nodiscard]] const std::vector<Cell>& cells() const noexcept { return cells_; }

  /// Hashed lookup by name, without a std::string temporary.
  [[nodiscard]] std::optional<std::size_t> find(std::string_view cell_name) const;
  /// Lookup that throws std::out_of_range with the cell name on a miss.
  [[nodiscard]] const Cell& require(const std::string& cell_name) const;

 private:
  std::string name_ = "unnamed";
  double vdd_ = 1.2;
  std::vector<Cell> cells_;
  StringMap<std::size_t> index_;
};

/// Build the default generated library:
///   INV_X1/X2/X4, BUF_X1/X2, NAND2_X1, NOR2_X1, AND2_X1, OR2_X1, XOR2_X1,
///   DFF_X1, LATCH_X1.
[[nodiscard]] Library default_library(const TechParams& tp = {});

/// The analytic forms used to characterize the default library; exposed so
/// tests can verify that the sampled tables faithfully reproduce them.
namespace model {
/// Gate delay: intrinsic + 0.69 R_drive C_load + slew pushout.
[[nodiscard]] double delay(double drive_res, double intrinsic, double slew_in,
                           double c_load);
/// Output slew: 2.2 R_drive C_load floor-limited by a fraction of input slew.
[[nodiscard]] double slew_out(double drive_res, double slew_in, double c_load);
/// Immunity threshold vs glitch width.
[[nodiscard]] double immunity_threshold(const TechParams& tp, double width);
/// Propagated glitch peak for an input glitch (peak, width).
[[nodiscard]] double propagated_peak(const TechParams& tp, double drive_res,
                                     double in_peak, double in_width);
/// Propagated glitch width.
[[nodiscard]] double propagated_width(const TechParams& tp, double drive_res,
                                      double in_peak, double in_width);
}  // namespace model

}  // namespace nw::lib
