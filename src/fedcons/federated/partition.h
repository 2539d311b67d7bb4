// Algorithm PARTITION (paper, Figure 4) — deadline-monotonic first-fit
// partitioning of low-density tasks using the DBF* approximation.
//
//   PARTITION(τ_low, m_r):
//     order tasks by non-decreasing relative deadline (D_i ≤ D_{i+1})
//     for each task τ_i, for each processor k = 1 … m_r:
//       if (D_i − Σ_{τ_j ∈ τ(k)} DBF*(τ_j, D_i)) ≥ vol_i:
//         assign τ_i to processor k; next task
//     FAILURE if no processor fits
//
// This is the Fisher–Baruah–Baker first-fit decreasing-deadline algorithm of
// [Baruah & Fisher, IEEE TC 2006], restated over DAG-task volumes. Its
// guarantee (paper Lemma 2): if τ_low is partitionable by an optimal
// algorithm on m_r processors, PARTITION succeeds on m_r processors that are
// (3 − 1/m_r) times as fast.
//
// Variant note (see DESIGN.md): the paper's Fig. 4 shows only the demand
// condition; the cited Baruah–Fisher algorithm also requires the utilization
// condition u_i ≤ 1 − Σ_{τ_j ∈ τ(k)} u_j for tasks with D_i < T_i (the
// demand check alone examines only the instant D_i and can over-commit a
// processor's long-run capacity). The default here is the full algorithm;
// `Variant::kPaperLiteral` reproduces Fig. 4 verbatim for the E8 ablation,
// which quantifies how often the literal form accepts partitions that the
// exact EDF test then rejects.
#pragma once

#include <string>
#include <vector>

#include "fedcons/core/task_system.h"
#include "fedcons/obs/provenance.h"

namespace fedcons {

/// Which acceptance predicate PARTITION uses per (task, processor) probe.
enum class PartitionVariant {
  kFull,          ///< DBF demand check + utilization check (Baruah–Fisher);
                  ///< demand uses the k-point approximation (dbf_points)
  kPaperLiteral,  ///< Fig. 4 exactly: 1-point DBF* demand check only
  kExactEdf,      ///< admission = exact EDF test (QPA) of bin ∪ candidate —
                  ///< the strongest (and costliest) partitioned-EDF probe
};

/// Bin-selection heuristic. First-fit is the analyzed algorithm; best/worst
/// fit are provided for the E8 ablation.
enum class FitStrategy { kFirstFit, kBestFit, kWorstFit };

/// Task-ordering heuristic. Deadline-monotonic is the analyzed order.
enum class PartitionOrder {
  kDeadlineMonotonic,  ///< non-decreasing D_i (the paper's order)
  kDensityDescending,
  kUtilizationDescending,
};

[[nodiscard]] const char* to_string(PartitionVariant v) noexcept;
[[nodiscard]] const char* to_string(FitStrategy f) noexcept;
[[nodiscard]] const char* to_string(PartitionOrder o) noexcept;

struct PartitionOptions {
  PartitionVariant variant = PartitionVariant::kFull;
  FitStrategy fit = FitStrategy::kFirstFit;
  PartitionOrder order = PartitionOrder::kDeadlineMonotonic;
  /// Number of exact DBF steps before the linear tail in the kFull demand
  /// check (analysis/dbf.h, dbf_approx_k). 1 == the paper's DBF*; larger
  /// values trade analysis time for acceptance (experiment E10). Ignored by
  /// kPaperLiteral (always 1) and kExactEdf.
  int dbf_points = 1;
  /// When non-null, the placement loop records every (task, bin) probe here
  /// — which bins were tried, why each refused (utilization vs demand, with
  /// the failing DBF* breakpoint and the exact demand), and where the task
  /// landed (see obs/provenance.h). Recording only observes probes the loop
  /// already makes: placements, verdicts, and perf counters are unchanged.
  PartitionProvenance* provenance = nullptr;
};

/// Result of a partitioning attempt.
struct PartitionResult {
  bool success = false;
  /// assignment[k] = indices (into the input `tasks` span order) of the
  /// tasks placed on shared processor k. Meaningful only on success.
  std::vector<std::vector<std::size_t>> assignment;
  /// On failure: the input-order index of the first task that fit nowhere.
  std::size_t failed_task = 0;
};

/// Partition the given sequential task views on `num_processors` processors.
/// An empty task list trivially succeeds (even on zero processors). Probes
/// run against per-bin aggregates and certified-double screens
/// (federated/partition_state.h); verdicts, placements and
/// dbf_star_evaluations equal the recompute-per-probe
/// reference::partition_tasks (tests/reference/) for every variant, fit and
/// order.
[[nodiscard]] PartitionResult partition_tasks(
    std::span<const SporadicTask> tasks, int num_processors,
    const PartitionOptions& options = {});

/// Certify a partition with the exact uniprocessor EDF test on every
/// processor. Full-variant partitions always pass (property-tested); the
/// paper-literal variant may not — measured in E8.
[[nodiscard]] bool partition_is_edf_schedulable(
    std::span<const SporadicTask> tasks, const PartitionResult& result);

}  // namespace fedcons
