// Uniformly sampled waveform with the glitch measurements the accuracy
// experiments need (peak, time of peak, width at a fraction of peak).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace nw::spice {

class Waveform {
 public:
  Waveform() = default;
  Waveform(double t0, double dt, std::vector<double> samples)
      : t0_(t0), dt_(dt), samples_(std::move(samples)) {}

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double t0() const noexcept { return t0_; }
  [[nodiscard]] double dt() const noexcept { return dt_; }
  [[nodiscard]] double time_at(std::size_t i) const noexcept {
    return t0_ + dt_ * static_cast<double>(i);
  }
  [[nodiscard]] std::span<const double> samples() const noexcept { return samples_; }

  /// Linear interpolation at time t (clamped to the ends).
  [[nodiscard]] double at(double t) const noexcept;

 private:
  double t0_ = 0.0;
  double dt_ = 1.0;
  std::vector<double> samples_;
};

/// A measured glitch: excursion of a waveform away from its baseline.
struct GlitchMeasure {
  double peak = 0.0;     ///< |max deviation from baseline| [V]
  double t_peak = 0.0;   ///< time of the peak [s]
  double width = 0.0;    ///< time spent above 50% of peak [s]
  bool positive = true;  ///< polarity of the excursion
};

/// Measure the largest same-polarity excursion from `baseline`.
/// `width_fraction` sets the width threshold (default half-peak).
[[nodiscard]] GlitchMeasure measure_glitch(const Waveform& w, double baseline,
                                           double width_fraction = 0.5);

/// measure_glitch on samples taken every `dt` from t = 0 (what a
/// transient run records); the Waveform overload adds its t0 to t_peak.
[[nodiscard]] GlitchMeasure measure_glitch(std::span<const double> samples, double dt,
                                           double baseline, double width_fraction = 0.5);

/// Pointwise max abs difference between two waveforms over their common
/// span, sampled at `n` points (accuracy metric between golden/model).
[[nodiscard]] double max_abs_difference(const Waveform& a, const Waveform& b,
                                        std::size_t n = 512);

}  // namespace nw::spice
