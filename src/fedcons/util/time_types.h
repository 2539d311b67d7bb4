// Integer time arithmetic for real-time schedulability analysis.
//
// All temporal quantities in the library — worst-case execution times (WCETs),
// relative deadlines, periods, absolute instants in schedules and simulations —
// are expressed in integral "ticks" (the paper's model has e_v ∈ ℕ; rational
// parameters can always be scaled to integers). Keeping time integral makes
// every schedulability *decision* exact: there are no floating-point acceptance
// flips at test boundaries.
//
// The checked_* helpers detect signed overflow (which would otherwise be UB)
// and throw, so pathological generator parameters fail loudly instead of
// producing silently wrong analysis results.
#pragma once

#include <cstdint>
#include <limits>

#include "fedcons/util/check.h"

namespace fedcons {

/// Integral time in ticks. Non-negative for durations; instants may use the
/// full signed range in intermediate expressions.
using Time = std::int64_t;

/// Sentinel for "unbounded / no such instant" (e.g. MINPROCS returning ∞).
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::max();

/// 2^63 as a double: a real x >= 0 converts to Time (by llround or a cast)
/// only when x < kTimeRealLimit.
inline constexpr double kTimeRealLimit = 0x1p63;

/// Overflow-checked addition. Throws ContractViolation on signed overflow.
[[nodiscard]] inline Time checked_add(Time a, Time b) {
  Time r{};
  FEDCONS_EXPECTS_MSG(!__builtin_add_overflow(a, b, &r),
                      "Time addition overflow");
  return r;
}

/// Overflow-checked multiplication. Throws ContractViolation on overflow.
[[nodiscard]] inline Time checked_mul(Time a, Time b) {
  Time r{};
  FEDCONS_EXPECTS_MSG(!__builtin_mul_overflow(a, b, &r),
                      "Time multiplication overflow");
  return r;
}

/// Saturating addition for non-negative demand quantities: a sum that would
/// exceed the representable range (or involves kTimeInfinity) collapses to
/// kTimeInfinity instead of wrapping. Demand accumulation uses this so that
/// pathological parameters yield "unschedulable by saturation" — an infinite
/// demand fails every Σ DBF(t) ≤ t comparison — never a wrapped, silently
/// wrong verdict. Preconditions: a >= 0, b >= 0.
[[nodiscard]] inline Time saturating_add(Time a, Time b) {
  FEDCONS_EXPECTS(a >= 0 && b >= 0);
  if (a == kTimeInfinity || b == kTimeInfinity) return kTimeInfinity;
  Time r{};
  if (__builtin_add_overflow(a, b, &r)) return kTimeInfinity;
  return r;
}

/// Saturating multiplication (same convention as saturating_add).
/// Preconditions: a >= 0, b >= 0.
[[nodiscard]] inline Time saturating_mul(Time a, Time b) {
  FEDCONS_EXPECTS(a >= 0 && b >= 0);
  if ((a == kTimeInfinity && b != 0) || (b == kTimeInfinity && a != 0)) {
    return kTimeInfinity;
  }
  Time r{};
  if (__builtin_mul_overflow(a, b, &r)) return kTimeInfinity;
  return r;
}

/// Floor division for positive denominator. Remainder-based so the
/// intermediate never overflows, whatever the magnitudes: the textbook
/// (a + b - 1) adjustment wraps for operands near the int64 edge, which once
/// let busy_period collapse a huge-parameter testing bound to 0 and certify
/// an unschedulable set.
[[nodiscard]] constexpr Time floor_div(Time a, Time b) {
  return a / b - static_cast<Time>(a % b != 0 && a < 0);
}

/// Ceiling division for positive denominator (overflow-free, see floor_div).
[[nodiscard]] constexpr Time ceil_div(Time a, Time b) {
  return a / b + static_cast<Time>(a % b != 0 && a > 0);
}

/// Greatest common divisor (non-negative result; gcd(0, 0) == 0).
[[nodiscard]] constexpr Time gcd_time(Time a, Time b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    Time t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Least common multiple with overflow checking.
[[nodiscard]] inline Time checked_lcm(Time a, Time b) {
  if (a == 0 || b == 0) return 0;
  Time g = gcd_time(a, b);
  return checked_mul(a / g, b);
}

}  // namespace fedcons
