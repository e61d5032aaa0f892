// Deterministic PRNG for testcase generation and property tests.
//
// xoshiro256** — fast, high quality, and (unlike std::mt19937 +
// distributions) bit-identical across standard library implementations, so
// generated designs and experiment tables are reproducible everywhere.
#pragma once

#include <cstdint>

namespace nw {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
    // splitmix64 seeding
    std::uint64_t z = seed;
    for (auto& word : s_) {
      z += 0x9E3779B97F4A7C15ull;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      word = x ^ (x >> 31);
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept {
    return n == 0 ? 0 : next() % n;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    if (hi <= lo) return lo;
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace nw
