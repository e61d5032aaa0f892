#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace nw {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins, 0) {}

void Histogram::add(double x) noexcept {
  const double span = hi_ - lo_;
  std::size_t bin = 0;
  if (span > 0.0) {
    const double f = (x - lo_) / span;
    const auto nb = static_cast<double>(counts_.size());
    bin = static_cast<std::size_t>(std::clamp(f * nb, 0.0, nb - 1.0));
  }
  ++counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const noexcept {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const noexcept {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin + 1) / static_cast<double>(counts_.size());
}

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    os.setf(std::ios::scientific);
    os.precision(2);
    os << bin_lo(b) << " .. " << bin_hi(b) << " : ";
    os.unsetf(std::ios::scientific);
    os << counts_[b] << "\t";
    const std::size_t bar = counts_[b] * width / peak;
    for (std::size_t i = 0; i < bar; ++i) os << '#';
    os << "\n";
  }
  return os.str();
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(i);
  if (i + 1 >= v.size()) return v.back();
  return v[i] * (1.0 - frac) + v[i + 1] * frac;
}

}  // namespace nw
