#include "spice/waveform.hpp"

#include <algorithm>
#include <cmath>

namespace nw::spice {

double Waveform::at(double t) const noexcept {
  if (samples_.empty()) return 0.0;
  const double x = (t - t0_) / dt_;
  if (x <= 0.0) return samples_.front();
  const auto last = static_cast<double>(samples_.size() - 1);
  if (x >= last) return samples_.back();
  const auto i = static_cast<std::size_t>(x);
  const double f = x - static_cast<double>(i);
  return samples_[i] * (1.0 - f) + samples_[i + 1] * f;
}

double Waveform::max_value() const noexcept {
  double m = samples_.empty() ? 0.0 : samples_[0];
  for (const double v : samples_) m = std::max(m, v);
  return m;
}

double Waveform::min_value() const noexcept {
  double m = samples_.empty() ? 0.0 : samples_[0];
  for (const double v : samples_) m = std::min(m, v);
  return m;
}

GlitchMeasure measure_glitch(const Waveform& w, double baseline, double width_fraction) {
  GlitchMeasure g = measure_glitch(w.samples(), w.dt(), baseline, width_fraction);
  g.t_peak += w.t0();
  return g;
}

GlitchMeasure measure_glitch(std::span<const double> samples, double dt, double baseline,
                             double width_fraction) {
  GlitchMeasure g;
  if (samples.empty()) return g;

  // Find the extreme deviation and its polarity.
  double best = 0.0;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double dev = samples[i] - baseline;
    if (std::abs(dev) > std::abs(best)) {
      best = dev;
      best_i = i;
    }
  }
  g.peak = std::abs(best);
  g.t_peak = dt * static_cast<double>(best_i);
  g.positive = best >= 0.0;
  if (g.peak == 0.0) return g;

  // Width: total time the same-polarity deviation exceeds fraction*peak.
  const double thresh = width_fraction * g.peak;
  const double sign = g.positive ? 1.0 : -1.0;
  double width = 0.0;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const double d0 = sign * (samples[i] - baseline);
    const double d1 = sign * (samples[i + 1] - baseline);
    // Fraction of the step above the width threshold (linear interp).
    const bool a0 = d0 >= thresh;
    const bool a1 = d1 >= thresh;
    if (a0 && a1) {
      width += dt;
    } else if (a0 != a1) {
      const double f = (thresh - d0) / (d1 - d0);
      width += dt * (a0 ? f : (1.0 - f));
    }
  }
  g.width = width;
  return g;
}

double max_abs_difference(const Waveform& a, const Waveform& b, std::size_t n) {
  if (a.empty() || b.empty() || n == 0) return 0.0;
  const double t0 = std::max(a.t0(), b.t0());
  const double t1 = std::min(a.time_at(a.size() - 1), b.time_at(b.size() - 1));
  if (t1 <= t0) return 0.0;
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) / static_cast<double>(n - 1);
    m = std::max(m, std::abs(a.at(t) - b.at(t)));
  }
  return m;
}

}  // namespace nw::spice
