// Demand bound functions for three-parameter sporadic tasks.
//
// DBF(τ, t) [Baruah–Mok–Rosier 1990] is the maximum cumulative execution
// demand of jobs of τ with both arrival and deadline inside any interval of
// length t:
//     DBF(τ, t) = max(0, ⌊(t − D)/T⌋ + 1) · C.
//
// DBF*(τ, t) is the linear upper approximation used by Algorithm PARTITION
// (paper, Eq. (1), restated from Baruah–Fisher 2006), in DAG-task notation:
//     DBF*(τ_i, t) = 0                         if t < D_i,
//                    vol_i + u_i · (t − D_i)   otherwise  (u_i = vol_i/T_i).
//
// Key properties (pinned by property tests): DBF ≤ DBF* everywhere; both are
// monotone non-decreasing in t; DBF* − DBF < C; DBF steps exactly at
// t = D + kT.
#pragma once

#include <span>
#include <vector>

#include "fedcons/core/sequential_task.h"
#include "fedcons/util/rational.h"
#include "fedcons/util/time_types.h"

namespace fedcons {

/// Exact demand bound function. Pure integer arithmetic; t may be any value
/// (negative t yields 0).
[[nodiscard]] Time dbf(const SporadicTask& task, Time t);

/// The DBF* approximation, exactly, as a rational (denominator divides T).
[[nodiscard]] BigRational dbf_approx(const SporadicTask& task, Time t);

/// The k-point refinement of DBF* (Albers–Slomka family): exact DBF for the
/// first `points` steps, then the linear tail
///     k·C + u·(t − D − (k−1)·T)      for t ≥ D + (k−1)·T.
/// points == 1 reproduces DBF* exactly; points → ∞ converges to DBF from
/// above. Monotone in `points`: more points never increase the bound.
/// Precondition: points >= 1.
[[nodiscard]] BigRational dbf_approx_k(const SporadicTask& task, Time t,
                                       int points);

/// The instants where Σ_j dbf_approx_k(τ_j, ·, points) changes slope within
/// (0, horizon]: every D_j + i·T_j for i < points. Sorted, deduplicated.
/// With the additional condition Σ u_j ≤ 1, verifying the demand inequality
/// at exactly these breakpoints certifies it for all t (piecewise linearity
/// + final slope ≤ 1).
[[nodiscard]] std::vector<Time> dbf_approx_breakpoints(
    std::span<const SporadicTask> tasks, int points, Time horizon);

/// Σ_j DBF(τ_j, t) with overflow checking (exact demand at one instant).
[[nodiscard]] Time total_dbf(std::span<const SporadicTask> tasks, Time t);

/// Incrementally maintained Σ_j DBF*(τ_j, t) over a growing task set — the
/// per-bin cache behind PARTITION's incremental acceptance probes.
///
/// Members are kept sorted by deadline (ties in insertion order) as integer
/// (C_j, D_j, T_j) arrays. The exact view is the inclusive prefix fold of
/// (C_j, C_j/T_j, C_j·D_j/T_j), so one evaluation is
///     Σ_{D_j ≤ t} (C_j + u_j·(t − D_j)) = Σvol + (Σu)·t − Σ(u·D)
/// over the prefix with D_j ≤ t: O(log n) lookup plus O(1) rational ops
/// instead of an O(n) per-member sum, and — all arithmetic being exact —
/// equal as a rational to the term-wise sum, so every comparison made
/// against it decides identically (pinned by the partition tests).
///
/// The exact prefixes are a cache of that canonical left fold
///     prefix[0] = term[0],  prefix[i] = prefix[i-1] + term[i],
/// filled on demand: sum_at / sum_at_uncounted extend it up to the index
/// they read, and insert / remove cut it back to the first member whose
/// index changed. PARTITION decides almost every probe on the double mirrors
/// below, so most aggregates never build a single rational. Because each
/// entry is a pure function of the member arrays before it, a read returns
/// the same representation whatever history produced those arrays.
///
/// Reads fill the cache, so const methods mutate it: one aggregate must not
/// be read from two threads at once (PartitionState and AdmissionSession
/// already have a single toucher).
///
/// Counter contract: sum_at credits one dbf_star_evaluations per member,
/// exactly what the per-member dbf_approx loop it replaces would have
/// counted (members with D_j > t included — their calls return 0 but count).
///
/// Each prefix entry is a sum of at most size() reduce_fast-normalized terms,
/// the same limb-growth bound as the transient per-probe sums (rational.h
/// design note), so long-lived storage does not compound.
///
/// Alongside the integer members the aggregate maintains double-precision
/// SoA mirrors for the certified probe kernel (simd/dbf_kernel.h), updated
/// on every insert and remove: per member the affine DBF* term
/// (a_j = C_j − u_j·D_j, b_j = u_j) and a magnitude bound, folded by the
/// same canonical left fold (so rollback restores the exact double
/// representations too), then gathered per distinct deadline. Members whose
/// parameters exceed the kernel's validated range poison their magnitude
/// prefix with +inf, which forces every affected lane onto the exact
/// rational fallback — the mirrors can accelerate decisions but never
/// change one.
class DbfStarAggregate {
 public:
  /// Add one member. O(size) double and integer work worst case (suffix
  /// mirror refresh); no rational is built. PARTITION performs one insert
  /// per placement vs. many probes.
  void insert(const SporadicTask& task);

  /// Remove one member matching (C, D, T) exactly — the rollback behind
  /// online task departure (online/admission_session.h). Precondition: such
  /// a member is present (ContractViolation otherwise).
  ///
  /// Rollback is exact to the bit, not merely to the value: the member
  /// arrays return to what they were before the insert, and every stored
  /// value (the double mirrors now, the exact prefixes when next read) is
  /// the canonical fold over those arrays, so it has the same representation
  /// it would have had if the member had never been inserted (pinned by the
  /// partition_state rollback property tests). Subtracting from the prefix
  /// sums instead would be value-equal but could normalize differently.
  void remove(const SporadicTask& task);

  /// Σ_j DBF*(τ_j, t) over all members, exactly. Extends the exact prefix
  /// cache up to the last member with D_j ≤ t.
  [[nodiscard]] BigRational sum_at(Time t) const;

  /// sum_at without the counter credit — the exact fallback of the certified
  /// probe, whose caller accounts breakpoints itself (partition_state.cpp).
  [[nodiscard]] BigRational sum_at_uncounted(Time t) const;

  [[nodiscard]] std::size_t size() const noexcept { return deadlines_.size(); }

  /// Sorted, deduplicated member deadlines — the slope breakpoints of the
  /// summed 1-point approximation (dbf_approx_breakpoints with points == 1).
  [[nodiscard]] std::span<const Time> distinct_deadlines() const noexcept {
    return distinct_deadlines_;
  }

  /// Double SoA mirrors for simd::dbf_scan, indexed like distinct_deadlines():
  /// entry k holds double(distinct deadline k) and the inclusive double prefix
  /// (A = Σa_j, B = Σb_j, M = Σmag_j) over all members with D_j ≤ that
  /// deadline, so the aggregate demand at breakpoint bp_k is A_k + B_k·bp_k.
  [[nodiscard]] std::span<const double> soa_breakpoints() const noexcept {
    return soa_bp_;
  }
  [[nodiscard]] std::span<const double> soa_prefix_a() const noexcept {
    return soa_a_;
  }
  [[nodiscard]] std::span<const double> soa_prefix_b() const noexcept {
    return soa_b_;
  }
  [[nodiscard]] std::span<const double> soa_prefix_mag() const noexcept {
    return soa_mag_;
  }

 private:
  /// Recompute the double prefix mirrors for indices [idx, size) by the
  /// canonical fold and cut the exact prefix cache back to idx — shared by
  /// insert and remove so both histories land on identical representations.
  void refresh_prefixes_from(std::size_t idx);

  /// Extend the exact prefix cache to cover indices [0, k].
  void fold_exact_to(std::size_t k) const;

  /// Regather the distinct-deadline SoA views from the member prefixes.
  void rebuild_soa();

  // Parallel member arrays, sorted by deadline (ties keep insertion order).
  std::vector<Time> deadlines_;
  std::vector<Time> vol_;     ///< per member: C_j
  std::vector<Time> period_;  ///< per member: T_j
  // Exact inclusive prefix sums of (C_j, C_j/T_j, C_j·D_j/T_j), valid for
  // indices [0, prefix_vol_.size()); extended by fold_exact_to.
  mutable std::vector<BigRational> prefix_vol_;
  mutable std::vector<BigRational> prefix_u_;
  mutable std::vector<BigRational> prefix_ud_;
  std::vector<Time> distinct_deadlines_;
  // Double mirrors: per-member affine terms (simd::dbf_affine_term) and their
  // inclusive left folds, then one gathered entry per distinct deadline.
  std::vector<double> term_a_, term_b_, term_mag_;
  std::vector<double> pfx_a_, pfx_b_, pfx_mag_;
  std::vector<double> soa_bp_, soa_a_, soa_b_, soa_mag_;
};

}  // namespace fedcons
