// Algorithm FEDCONS (paper, Figure 2) — the paper's primary contribution.
//
//   FEDCONS(τ, m):
//     m_r ← m
//     for each τ_i ∈ τ_high:                      // δ_i ≥ 1
//       m_i ← MINPROCS(τ_i, m_r); FAILURE if m_i > m_r
//       σ_i ← LS schedule of G_i on m_i processors
//       m_r ← m_r − m_i
//     PARTITION(τ_low, m_r)                       // δ_i < 1
//
// Each high-density task receives exclusive use of m_i processors and is
// dispatched at run time by replaying σ_i as a lookup table; the low-density
// tasks are partitioned on the m_r remaining ("shared") processors, each of
// which runs preemptive uniprocessor EDF.
//
// Theorem 1 (paper): if τ is schedulable by an optimal federated algorithm
// on m unit-speed processors, FEDCONS schedules it on m processors of speed
// (3 − 1/m).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fedcons/core/task_system.h"
#include "fedcons/federated/minprocs.h"
#include "fedcons/federated/partition.h"
#include "fedcons/obs/provenance.h"

namespace fedcons {

/// Why FEDCONS rejected a system (for E8's phase-bottleneck analysis).
enum class FedconsFailure {
  kNone,                 ///< accepted
  kHighDensityPhase,     ///< MINPROCS exhausted the processors
  kPartitionPhase,       ///< PARTITION could not place a low-density task
};

[[nodiscard]] const char* to_string(FedconsFailure f) noexcept;

/// A dedicated cluster: one high-density task, its processors, and σ_i.
struct ClusterAssignment {
  TaskId task = 0;
  int first_processor = 0;  ///< global index of the cluster's first processor
  int num_processors = 0;   ///< m_i
  TemplateSchedule sigma;   ///< LS template schedule (makespan ≤ D_i)
};

/// Complete output of FEDCONS on success; diagnosis on failure.
struct FedconsResult {
  bool success = false;
  FedconsFailure failure = FedconsFailure::kNone;
  std::optional<TaskId> failed_task;  ///< offending task where applicable

  std::vector<ClusterAssignment> clusters;  ///< one per high-density task
  int shared_processors = 0;                ///< m_r after phase 1
  int first_shared_processor = 0;           ///< global index of shared pool
  /// shared_assignment[k] = TaskIds of low-density tasks on shared proc k.
  std::vector<std::vector<TaskId>> shared_assignment;

  /// Full decision record (set iff FedconsOptions::record_provenance): the
  /// per-task μ-scan trajectories and bin-attempt lists that produced this
  /// verdict. Render with explain_text / explain_json (obs/provenance.h).
  std::shared_ptr<const FedconsProvenance> provenance;

  /// Human-readable allocation map.
  [[nodiscard]] std::string describe(const TaskSystem& system) const;
};

struct FedconsOptions {
  ListPolicy list_policy = ListPolicy::kVertexOrder;
  PartitionOptions partition;
  /// Attach a FedconsProvenance to the result. Off by default: recording
  /// allocates per-probe records, and the algorithm's hot path must stay
  /// allocation-free for the batch engine. Verdicts and perf counters are
  /// identical either way (pinned by tests/obs_provenance_test.cpp).
  bool record_provenance = false;
};

/// Run FEDCONS for `system` on m unit-speed processors.
/// Preconditions: m >= 1; the system is constrained-deadline (D_i ≤ T_i for
/// every task — the model this algorithm is defined for).
[[nodiscard]] FedconsResult fedcons_schedule(const TaskSystem& system, int m,
                                             const FedconsOptions& options = {});

/// Convenience: acceptance verdict only.
[[nodiscard]] inline bool fedcons_schedulable(const TaskSystem& system, int m,
                                              const FedconsOptions& options = {}) {
  return fedcons_schedule(system, m, options).success;
}

}  // namespace fedcons
