// Procedure MINPROCS (paper, Figure 3).
//
//   MINPROCS(τ_i, m_r):
//     for μ ← ⌈δ_i⌉ to m_r do
//       apply List Scheduling to construct a schedule for G_i on μ processors
//       if this schedule has makespan ≤ D_i: return μ
//     return ∞
//
// Determines the minimum number of dedicated processors on which Graham LS
// schedules one dag-job of τ_i within its relative deadline, and keeps the
// resulting template schedule σ_i for run-time replay. The scan is linear —
// NOT a binary search — because LS makespan is not guaranteed monotone in the
// processor count (another face of Graham's anomalies), a fact covered by a
// regression test.
//
// Lemma 1 (paper): if τ_i is schedulable by an optimal scheduler on m_i
// unit-speed processors, LS schedules it on m_i processors of speed 2 − 1/m_i
// — inherited from Graham's (2 − 1/m) makespan bound.
#pragma once

#include <optional>

#include "fedcons/core/dag_task.h"
#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/listsched/schedule.h"
#include "fedcons/obs/provenance.h"

namespace fedcons {

/// Successful MINPROCS outcome: a processor count and the template schedule.
struct MinprocsResult {
  int processors = 0;
  TemplateSchedule sigma;
};

/// Options for the MINPROCS scan. The scan is capped at μ_ub =
/// minprocs_scan_cap(task) and runs LS through the thread-local workspace
/// (keys prepared once per task); it returns bit-identical results to the
/// seed scan over all of [⌈δ⌉, m_r] — the test-only reference::minprocs,
/// pinned by tests/minprocs_equivalence_test.cpp.
struct MinprocsOptions {
  /// When non-null, the scan records its full μ-trajectory here (every
  /// probe's makespan, the Graham cap, and the exhaustion witness — see
  /// obs/provenance.h). Recording only observes probes the scan already
  /// makes: verdicts, probe sequence, and perf counters are unchanged.
  MinprocsProvenance* provenance = nullptr;
};

/// Run MINPROCS for τ_i with at most max_processors available. Returns
/// nullopt when no μ ≤ max_processors yields makespan ≤ D_i (the paper's
/// "∞"), including the trivially hopeless case len_i > D_i.
/// Preconditions: max_processors >= 0 (0 always yields nullopt).
[[nodiscard]] std::optional<MinprocsResult> minprocs(
    const DagTask& task, int max_processors,
    ListPolicy policy = ListPolicy::kVertexOrder,
    const MinprocsOptions& options = {});

/// The scan's lower starting point ⌈δ_i⌉ = ⌈vol_i / min(D_i, T_i)⌉, in exact
/// integer arithmetic. Exposed for tests and the E7 efficiency experiment.
[[nodiscard]] int minprocs_lower_bound(const DagTask& task);

/// Upper cap of the pruned scan: the smallest μ at which Graham's bound
/// already certifies a fit, clamped up to minprocs_lower_bound. For len ≤ D,
///   graham_bound(μ) = ⌊(vol + (μ−1)·len)/μ⌋ ≤ D  ⟺  μ ≥ ⌈(vol−len+1)/(D+1−len)⌉
/// and LS makespan ≤ graham_bound, so the probe at μ_ub always succeeds —
/// every candidate in (μ_ub, m_r] is provably redundant. Because the first
/// success of the reference scan is also ≤ μ_ub, capping changes no probe
/// and no verdict (see DESIGN.md §7). Returns 0 when len > D (no μ works).
/// The result is a Time: it can exceed int range when D − len is tiny, which
/// is why callers clamp with min(m_r, cap) before casting.
[[nodiscard]] Time minprocs_scan_cap(const DagTask& task);

}  // namespace fedcons
