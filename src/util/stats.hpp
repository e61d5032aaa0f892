// Small statistics helpers for accuracy tables and histograms.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace nw {

/// Streaming summary statistics (Welford's online algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi]; out-of-range samples clamp to the
/// first/last bin so no sample is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;

  /// Render as text rows "lo..hi : count  ####".
  [[nodiscard]] std::string ascii(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
};

/// Percentile of a sample vector (copies and sorts; p in [0,100]).
[[nodiscard]] double percentile(std::span<const double> xs, double p);

}  // namespace nw
