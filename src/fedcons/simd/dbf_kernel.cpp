// The DBF* classification kernel and the term builders it shares with the
// aggregate.
//
// This translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt): the canonical operation sequence separates every multiply
// from the adds around it, and a contracted fused multiply-add would round
// differently from the sequence the certified margin is derived for.

#include "fedcons/simd/dbf_kernel.h"

#include <cmath>
#include <limits>

namespace fedcons::simd {

DbfCand dbf_affine_term(long long wcet, long long deadline,
                        long long period) noexcept {
  DbfCand out;
  if (wcet < 0 || deadline < 0 || period <= 0 || wcet > kDbfMaxMagnitude ||
      deadline > kDbfMaxMagnitude || period > kDbfMaxMagnitude) {
    out.mag = std::numeric_limits<double>::infinity();
    return out;
  }
  const double c = static_cast<double>(wcet);      // exact: |wcet| ≤ 2^40
  const double d = static_cast<double>(deadline);  // exact
  const double t = static_cast<double>(period);    // exact
  const double q = c / t;  // one rounding
  const double p = q * d;  // one rounding (kept a separate statement: no FMA)
  out.a = c - p;
  out.b = q;
  out.mag = c + p;
  return out;
}

DbfCand dbf_constant_term(long long wcet) noexcept {
  DbfCand out;
  if (wcet < 0 || wcet > kDbfMaxMagnitude) {
    out.mag = std::numeric_limits<double>::infinity();
    return out;
  }
  out.a = static_cast<double>(wcet);  // exact
  out.b = 0.0;
  out.mag = out.a;
  return out;
}

double util_term(long long wcet, long long period) noexcept {
  if (wcet < 0 || period <= 0 || wcet > kDbfMaxMagnitude ||
      period > kDbfMaxMagnitude) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(wcet) / static_cast<double>(period);
}

int dbf_scan(const double* bp, const double* A, const double* B,
             const double* M, int begin, int end, DbfCand cand, double eps_n,
             LaneClass* out_class) noexcept {
  for (int i = begin; i < end; ++i) {
    const double t1 = A[i] + cand.a;
    const double t2 = B[i] + cand.b;
    const double t3 = t2 * bp[i];
    const double dem = t1 + t3;
    const double mag = ((M[i] + cand.mag) + std::fabs(t1)) + std::fabs(t3);
    const double err = eps_n * mag;
    if (dem + err <= bp[i]) continue;  // certainly fits
    *out_class = (dem - err > bp[i]) ? LaneClass::kReject : LaneClass::kUncertain;
    return i;
  }
  return end;
}

}  // namespace fedcons::simd
