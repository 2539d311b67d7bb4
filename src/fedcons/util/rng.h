// Deterministic pseudo-random number generation.
//
// Experiments must be bit-reproducible across platforms and standard-library
// implementations, so we implement the generator (xoshiro256**) and the
// distributions ourselves instead of relying on <random>'s
// implementation-defined distribution algorithms. All experiment binaries
// take an explicit seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "fedcons/util/check.h"

namespace fedcons {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, 2^256-1 period.
/// Seeded through SplitMix64 so that any 64-bit seed yields a well-mixed
/// initial state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Derive an independent child generator (for per-trial streams).
  [[nodiscard]] Rng split();

  /// Uniform integer in [lo, hi] (inclusive). Precondition: lo <= hi.
  /// Uses rejection sampling (Lemire-style bounded draw) — no modulo bias.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    FEDCONS_EXPECTS(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi) -
                                static_cast<std::uint64_t>(lo) + 1;
    if (range == 0) {  // full 64-bit range
      return static_cast<std::int64_t>(next_u64());
    }
    // Rejection sampling on the top of the range to eliminate modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range);
    std::uint64_t draw;
    do {
      draw = next_u64();
    } while (draw >= limit);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     draw % range);
  }

  /// Uniform real in [0, 1).
  double uniform01() {
    // 53 uniform mantissa bits → [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi). Precondition: lo < hi.
  double uniform_real(double lo, double hi) {
    FEDCONS_EXPECTS(lo < hi);
    return lo + (hi - lo) * uniform01();
  }

  /// Log-uniform real in [lo, hi): uniform in the exponent. Preconditions:
  /// 0 < lo < hi. The canonical way to draw task periods spanning orders of
  /// magnitude (Emberson et al. convention).
  double log_uniform_real(double lo, double hi) {
    FEDCONS_EXPECTS(0 < lo && lo < hi);
    return std::exp(uniform_real(std::log(lo), std::log(hi)));
  }

  /// Bernoulli draw with success probability p in [0, 1].
  bool bernoulli(double p) {
    FEDCONS_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform01() < p;
  }

  /// Fisher–Yates shuffle (deterministic given the RNG state).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace fedcons
