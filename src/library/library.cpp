#include "library/library.hpp"

#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace nw::lib {

std::size_t Library::add_cell(Cell cell) {
  if (index_.contains(cell.name)) {
    throw std::invalid_argument("Library::add_cell: duplicate cell '" + cell.name + "'");
  }
  const std::size_t idx = cells_.size();
  index_.emplace(cell.name, idx);
  cells_.push_back(std::move(cell));
  return idx;
}

std::optional<std::size_t> Library::find(std::string_view cell_name) const {
  const auto it = index_.find(cell_name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const Cell& Library::require(const std::string& cell_name) const {
  const auto idx = find(cell_name);
  if (!idx) throw std::out_of_range("Library: no cell named '" + cell_name + "'");
  return cells_[*idx];
}

namespace model {

double delay(double drive_res, double intrinsic, double slew_in, double c_load) {
  return intrinsic + 0.69 * drive_res * c_load + 0.25 * slew_in;
}

double slew_out(double drive_res, double slew_in, double c_load) {
  const double rc = 2.2 * drive_res * c_load;
  // A gate cannot produce an output edge much faster than a fraction of the
  // input edge; blend keeps the surface smooth and monotone.
  return std::sqrt(rc * rc + 0.09 * slew_in * slew_in);
}

double immunity_threshold(const TechParams& tp, double width) {
  const double dc = tp.dc_margin_frac * tp.vdd;
  const double w = std::max(width, 0.0);
  return dc + (tp.vdd - dc) * std::exp(-w / tp.immunity_tau);
}

double propagated_peak(const TechParams& tp, double drive_res, double in_peak,
                       double in_width) {
  // Static transfer: logistic around the switching threshold.
  const double vth = tp.vth_frac * tp.vdd;
  const double x = (in_peak - vth) / (tp.prop_sharpness * tp.vdd);
  const double dc_out = tp.vdd / (1.0 + std::exp(-x));
  // Dynamic attenuation: narrow glitches are filtered by the output RC.
  // Use the X1 input cap as the representative self-load time constant.
  const double tau = drive_res * 10e-15;
  const double w = std::max(in_width, 0.0);
  const double atten = 1.0 - std::exp(-w / std::max(tau, 1e-15));
  return dc_out * atten;
}

double propagated_width(const TechParams& tp, double drive_res, double in_peak,
                        double in_width) {
  (void)in_peak;
  const double tau = drive_res * 10e-15;
  // Output glitch is the input width smeared by the gate's own response.
  return in_width + 0.69 * tau + 0.1 * tp.immunity_tau;
}

}  // namespace model

namespace {

std::vector<double> slew_axis() {
  return {5 * PS, 20 * PS, 60 * PS, 150 * PS, 400 * PS};
}

std::vector<double> cap_axis() {
  return {1 * FF, 5 * FF, 20 * FF, 80 * FF, 300 * FF};
}

std::vector<double> peak_axis(double vdd) {
  return {0.05 * vdd, 0.2 * vdd, 0.35 * vdd, 0.5 * vdd, 0.7 * vdd, 0.9 * vdd, vdd};
}

std::vector<double> width_axis() {
  return {5 * PS, 20 * PS, 60 * PS, 150 * PS, 400 * PS, 1 * NS};
}

Table2D delay_table(double drive_res, double intrinsic) {
  return Table2D::sample(slew_axis(), cap_axis(), [=](double s, double c) {
    return model::delay(drive_res, intrinsic, s, c);
  });
}

Table2D slew_table(double drive_res) {
  return Table2D::sample(slew_axis(), cap_axis(), [=](double s, double c) {
    return model::slew_out(drive_res, s, c);
  });
}

NoiseImmunity make_immunity(const TechParams& tp) {
  NoiseImmunity im;
  im.threshold_vs_width = Table1D::sample(width_axis(), [&](double w) {
    return model::immunity_threshold(tp, w);
  });
  return im;
}

NoisePropagation make_propagation(const TechParams& tp, double drive_res) {
  NoisePropagation np;
  np.out_peak = Table2D::sample(peak_axis(tp.vdd), width_axis(), [&](double p, double w) {
    return model::propagated_peak(tp, drive_res, p, w);
  });
  np.out_width = Table2D::sample(peak_axis(tp.vdd), width_axis(), [&](double p, double w) {
    return model::propagated_width(tp, drive_res, p, w);
  });
  return np;
}

/// Build a combinational cell with `n_inputs` inputs named A, B and output Y.
Cell make_comb(const TechParams& tp, const std::string& name, std::size_t n_inputs,
               double size_x, ArcSense sense) {
  Cell c;
  c.name = name;
  c.kind = CellKind::kCombinational;
  const double drive = tp.base_drive_res / size_x;
  c.drive_resistance = drive;
  c.holding_resistance = drive * tp.hold_res_factor;

  static constexpr const char* kInputNames[] = {"A", "B", "C", "D"};
  for (std::size_t i = 0; i < n_inputs; ++i) {
    c.pins.push_back({kInputNames[i], PinDir::kInput, PinRole::kNone,
                      tp.input_cap * size_x});
  }
  c.pins.push_back({"Y", PinDir::kOutput, PinRole::kNone, 0.0});

  const double intrinsic = tp.intrinsic_delay * (1.0 + 0.3 * (static_cast<double>(n_inputs) - 1.0));
  for (std::size_t i = 0; i < n_inputs; ++i) {
    TimingArc arc;
    arc.from_pin = i;
    arc.to_pin = n_inputs;  // Y
    arc.sense = sense;
    arc.delay_rise = delay_table(drive, intrinsic);
    arc.delay_fall = delay_table(drive, intrinsic);
    arc.slew_rise = slew_table(drive);
    arc.slew_fall = slew_table(drive);
    c.arcs.push_back(std::move(arc));
  }

  c.immunity = make_immunity(tp);
  c.propagation = make_propagation(tp, drive);
  return c;
}

Cell make_dff(const TechParams& tp) {
  Cell c;
  c.name = "DFF_X1";
  c.kind = CellKind::kDff;
  const double drive = tp.base_drive_res;
  c.drive_resistance = drive;
  c.holding_resistance = drive * tp.hold_res_factor;
  c.pins.push_back({"D", PinDir::kInput, PinRole::kData, tp.input_cap});
  c.pins.push_back({"CK", PinDir::kInput, PinRole::kClock, tp.input_cap * 1.5});
  c.pins.push_back({"Q", PinDir::kOutput, PinRole::kNone, 0.0});
  // Clock-to-Q arc.
  TimingArc arc;
  arc.from_pin = 1;
  arc.to_pin = 2;
  arc.sense = ArcSense::kPositiveUnate;
  arc.delay_rise = delay_table(drive, tp.intrinsic_delay * 2.0);
  arc.delay_fall = delay_table(drive, tp.intrinsic_delay * 2.0);
  arc.slew_rise = slew_table(drive);
  arc.slew_fall = slew_table(drive);
  c.arcs.push_back(std::move(arc));
  c.setup = 40 * PS;
  c.hold = 20 * PS;
  c.immunity = make_immunity(tp);
  c.propagation = make_propagation(tp, drive);
  return c;
}

Cell make_latch(const TechParams& tp) {
  Cell c = make_dff(tp);
  c.name = "LATCH_X1";
  c.kind = CellKind::kLatch;
  c.pins[1].name = "EN";
  c.pins[1].role = PinRole::kEnable;
  c.setup = 30 * PS;
  c.hold = 30 * PS;
  return c;
}

}  // namespace

Library default_library(const TechParams& tp) {
  Library lib("nw_generic_130", tp.vdd);
  lib.add_cell(make_comb(tp, "INV_X1", 1, 1.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "INV_X2", 1, 2.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "INV_X4", 1, 4.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "BUF_X1", 1, 1.0, ArcSense::kPositiveUnate));
  lib.add_cell(make_comb(tp, "BUF_X2", 1, 2.0, ArcSense::kPositiveUnate));
  lib.add_cell(make_comb(tp, "BUF_X4", 1, 4.0, ArcSense::kPositiveUnate));
  lib.add_cell(make_comb(tp, "NAND2_X1", 2, 1.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "NOR2_X1", 2, 1.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "AND2_X1", 2, 1.0, ArcSense::kPositiveUnate));
  lib.add_cell(make_comb(tp, "OR2_X1", 2, 1.0, ArcSense::kPositiveUnate));
  lib.add_cell(make_comb(tp, "XOR2_X1", 2, 1.0, ArcSense::kNonUnate));
  lib.add_cell(make_comb(tp, "NAND3_X1", 3, 1.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "NOR3_X1", 3, 1.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "AOI21_X1", 3, 1.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "OAI21_X1", 3, 1.0, ArcSense::kNegativeUnate));
  lib.add_cell(make_comb(tp, "MUX2_X1", 3, 1.0, ArcSense::kNonUnate));
  lib.add_cell(make_dff(tp));
  lib.add_cell(make_latch(tp));
  return lib;
}

}  // namespace nw::lib
