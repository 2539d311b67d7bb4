// End-to-end random task-system generation.
//
// Reconstructs the experimental setup the paper describes only in prose
// ("schedulability experiments upon randomly-generated task systems"),
// using the conventions canonical in this literature:
//   * per-task utilizations from UUniFast-Discard at a target U_sum,
//   * periods log-uniform over [period_min, period_max] (Emberson et al.),
//   * DAG topology layered Erdős–Rényi or nested fork–join,
//   * per-task volume vol_i = u_i · T_i realized by rescaling vertex WCETs,
//   * constrained deadline D_i = max(len_i, ⌊r · T_i⌋) with the deadline
//     ratio r drawn uniformly from [deadline_ratio_min, deadline_ratio_max].
//
// The max(len_i, ·) clamp enforces the *necessary* condition len ≤ D — the
// standard practice (systems violating it are trivially infeasible for every
// scheduler and would only dilute acceptance-ratio comparisons). The clamp
// rate is reported by the generator for transparency.
#pragma once

#include <optional>

#include "fedcons/core/task_system.h"
#include "fedcons/gen/dag_gen.h"
#include "fedcons/util/rng.h"

namespace fedcons {

/// Which topology family to draw from.
enum class DagTopology { kLayered, kForkJoin, kMixed };

[[nodiscard]] const char* to_string(DagTopology t) noexcept;

/// Full parameter block for random task-system generation.
struct TaskSetParams {
  int num_tasks = 8;
  double total_utilization = 2.0;  ///< target U_sum
  double utilization_cap = 8.0;    ///< per-task cap for UUniFast-Discard

  double period_min = 100.0;   ///< log-uniform period range (ticks)
  double period_max = 100000.0;

  double deadline_ratio_min = 0.5;  ///< D/T ratio, uniform
  double deadline_ratio_max = 1.0;

  DagTopology topology = DagTopology::kLayered;
  LayeredDagParams layered;
  ForkJoinParams fork_join;
};

/// Side information about a generated system.
struct GenerationInfo {
  int deadline_clamps = 0;  ///< tasks whose D was raised to len
  double achieved_utilization = 0.0;
};

/// Draw one task system. Always succeeds for valid parameters; the achieved
/// U_sum differs from the target only by integer-rounding of volumes
/// (reported in `info` when non-null).
[[nodiscard]] TaskSystem generate_task_system(Rng& rng,
                                              const TaskSetParams& params,
                                              GenerationInfo* info = nullptr);

}  // namespace fedcons
