// Exact preemptive uniprocessor EDF schedulability analysis.
//
// After PARTITION assigns low-density tasks to shared processors, each shared
// processor runs preemptive EDF (paper, Section IV). The DBF* condition used
// during partitioning is *sufficient*; this header provides the classic
// *exact* test — the processor-demand criterion (PDC) of Baruah–Mok–Rosier —
// used by tests to certify partitions and by the ablation experiments to
// measure how much acceptance DBF* gives up.
//
//   τ (sporadic, any deadlines) is EDF-schedulable on one preemptive
//   unit-speed processor  ⟺  U_sum ≤ 1  and  ∀ t > 0: Σ_j DBF(τ_j, t) ≤ t.
//
// Only finitely many t need checking: absolute-deadline points below a bound
// L = min(busy-period length, the Baruah–Mok–Rosier bound L_a, hyperperiod +
// max D). The library decides the criterion with Zhang–Burns Quick
// Processor-demand Analysis (edf_schedulable_qpa), which walks backwards from
// L and typically probes far fewer points than a forward scan. The direct
// scan of every deadline point below L is a test-only oracle
// (tests/reference/) that the test suite cross-checks QPA against.
#pragma once

#include <optional>
#include <span>

#include "fedcons/core/sequential_task.h"
#include "fedcons/util/time_types.h"

namespace fedcons {

/// Result of an exact EDF test with a witness when unschedulable.
struct EdfResult {
  bool schedulable = false;
  /// When unschedulable due to demand overflow: the first instant t with
  /// Σ DBF > t. Unset when schedulable or when U_sum > 1 decides alone.
  std::optional<Time> violation_instant;
};

/// Testing-interval length L for the PDC. Returns kTimeInfinity when every
/// finite bound overflows int64 (callers must then rely on U_sum ≤ 1 plus an
/// explicit cap). Exposed for tests and diagnostics.
[[nodiscard]] Time pdc_testing_bound(std::span<const SporadicTask> tasks);

/// Synchronous busy-period length: least fixed point of
/// w = Σ_j ⌈w/T_j⌉·C_j. Precondition: U_sum ≤ 1 (diverges otherwise;
/// detected and reported as kTimeInfinity). A valid PDC bound.
[[nodiscard]] Time busy_period(std::span<const SporadicTask> tasks);

/// Zhang–Burns QPA. Equivalent verdict to the direct PDC scan
/// (property-tested against the test-only reference).
[[nodiscard]] EdfResult edf_schedulable_qpa(
    std::span<const SporadicTask> tasks);

/// Convenience: exact verdict via QPA.
[[nodiscard]] inline bool edf_schedulable(
    std::span<const SporadicTask> tasks) {
  return edf_schedulable_qpa(tasks).schedulable;
}

}  // namespace fedcons
