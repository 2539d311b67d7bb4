// Certified-double DBF* demand classification over SoA breakpoint arrays.
//
// PARTITION's acceptance probe asks, at each slope breakpoint bp of the
// summed 1-point approximation over bin ∪ {candidate},
//
//     Σ_{D_j ≤ bp} DBF*(τ_j, bp) + DBF*(cand, bp)  ≤  bp.
//
// Per member the DBF* term is affine in bp once bp ≥ D_j:
//     C_j + (C_j/T_j)·(bp − D_j) = a_j + b_j·bp,
//     a_j = C_j − (C_j/T_j)·D_j,   b_j = C_j/T_j,
// so the whole prefix sum is A + B·bp with A = Σ a_j, B = Σ b_j over members
// with D_j ≤ bp. DbfStarAggregate keeps A/B/magnitude prefixes per
// distinct deadline current across inserts and removes, as double mirrors of
// its exact prefix fold (analysis/dbf.h) — which it builds only on demand,
// when a lane needs the exact fallback. This kernel evaluates the affine
// form in IEEE doubles with a rigorous rounding-error margin and three-way
// classifies each lane:
//
//     kFit        demand + err ≤ bp      (certainly fits)
//     kReject     demand − err > bp      (certainly violates)
//     kUncertain  |demand − bp| ≤ err    (caller re-decides exactly)
//
// Certainty is what keeps verdicts exact and backend-invariant: a certain
// class agrees with the exact rational comparison by construction of the
// margin (derivation in DESIGN.md §13), and uncertain lanes fall back to the
// BigRational path, so the *decision* never depends on floating point.
//
// Canonical per-lane operation sequence (both backends, no FMA, no
// cross-lane ops — every lane is independent):
//     t1  = A[i] + cand.a
//     t2  = B[i] + cand.b
//     t3  = t2 * bp[i]
//     dem = t1 + t3
//     mag = ((M[i] + cand.mag) + |t1|) + |t3|
//     err = eps_n * mag
//     fit    ⇔ dem + err ≤ bp[i]
//     reject ⇔ dem − err > bp[i]
// Inputs outside the kernel's validated magnitude range are poisoned with
// M[i] = +inf by the aggregate (err becomes +inf ⇒ kUncertain ⇒ exact path).
#pragma once

namespace fedcons::simd {

/// Unit in the last place of a ≤53-bit double times 8 — the per-operation
/// error quantum the margin is built from (2^-50 = 8·2^-53).
inline constexpr double kDbfEps = 0x1p-50;

/// Per-lane classification (values are stable; tests pin them).
enum class LaneClass : signed char { kFit = 0, kReject = 1, kUncertain = 2 };

/// The candidate task's affine DBF* term at bp ≥ its deadline, plus its
/// error-magnitude scale. Build with dbf_affine_term / dbf_constant_term.
struct DbfCand {
  double a = 0.0;    ///< constant coefficient
  double b = 0.0;    ///< slope coefficient
  double mag = 0.0;  ///< magnitude bound for the rounding-error margin
};

/// The affine term (a, b, mag) of a task with the given parameters:
/// a = C − (C/T)·D, b = C/T, mag = C + (C/T)·D. Computed in one
/// -ffp-contract=off translation unit so the rounding sequence is identical
/// no matter which module asks (FMA contraction would change a's value).
/// Also used for the aggregate's member mirrors. Out-of-range parameters
/// (negative, or beyond kDbfMaxMagnitude) yield mag = +inf (poison).
[[nodiscard]] DbfCand dbf_affine_term(long long wcet, long long deadline,
                                      long long period) noexcept;

/// The paper-literal candidate term: the constant C (a = mag = C, b = 0).
[[nodiscard]] DbfCand dbf_constant_term(long long wcet) noexcept;

/// One utilization term C/T as a double, +inf when out of range (poison for
/// the per-bin utilization fold). Same contract-off TU as dbf_affine_term.
[[nodiscard]] double util_term(long long wcet, long long period) noexcept;

/// Largest |parameter| (C, D, T, breakpoint) the certified margin covers;
/// 2^40 keeps every intermediate far below the 2^53 exact-integer range.
inline constexpr long long kDbfMaxMagnitude = 1ll << 40;

/// Scan lanes [begin, end): classify each per the canonical sequence above
/// and return the index of the first lane that is not kFit (its class stored
/// in *out_class), or `end` when every lane fits. eps_n is the caller's
/// precomputed kDbfEps · (n + 16) margin scale (n = member count).
///
/// The scan direction (ascending i) mirrors the exact probe's
/// first-violation semantics; classification of lane i never depends on any
/// other lane, so early exit cannot change any lane's class.
[[nodiscard]] int dbf_scan(const double* bp, const double* A, const double* B,
                           const double* M, int begin, int end, DbfCand cand,
                           double eps_n, LaneClass* out_class) noexcept;

namespace detail {
// Backend entry points (dispatch.cpp picks; callers use dbf_scan).
[[nodiscard]] int dbf_scan_scalar(const double* bp, const double* A,
                                  const double* B, const double* M, int begin,
                                  int end, DbfCand cand, double eps_n,
                                  LaneClass* out_class) noexcept;
[[nodiscard]] int dbf_scan_avx2(const double* bp, const double* A,
                                const double* B, const double* M, int begin,
                                int end, DbfCand cand, double eps_n,
                                LaneClass* out_class) noexcept;
}  // namespace detail

}  // namespace fedcons::simd
