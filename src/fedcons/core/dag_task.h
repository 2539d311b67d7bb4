// The sporadic DAG task: (G_i, D_i, T_i) per the paper's Section II.
#pragma once

#include <string>
#include <utility>

#include "fedcons/core/dag.h"
#include "fedcons/core/sequential_task.h"
#include "fedcons/util/rational.h"

namespace fedcons {

/// Deadline-class of a task or system (paper, Section II).
enum class DeadlineClass {
  kImplicit,     ///< D == T
  kConstrained,  ///< D <= T (strict subset excluded: still "constrained")
  kArbitrary,    ///< D > T somewhere
};

[[nodiscard]] const char* to_string(DeadlineClass c) noexcept;

/// A sporadic DAG task τ_i = (G_i, D_i, T_i).
///
/// Releases of "dag-jobs" are separated by at least T; all |V| jobs of a
/// dag-job released at t must finish by t + D, subject to the precedence
/// edges of G. Derived quantities (paper, Section II):
///   vol_i  — total WCET per dag-job,
///   len_i  — longest-chain length,
///   u_i    = vol_i / T_i                (utilization),
///   δ_i    = vol_i / min(D_i, T_i)      (density).
/// A task with δ_i ≥ 1 is HIGH-density, else LOW-density; FEDCONS dedicates
/// processors to the former and partitions the latter.
class DagTask {
 public:
  /// Preconditions: non-empty graph, positive deadline and period.
  DagTask(Dag graph, Time deadline, Time period, std::string name = {});

  [[nodiscard]] const Dag& graph() const noexcept { return graph_; }
  [[nodiscard]] Time deadline() const noexcept { return deadline_; }
  [[nodiscard]] Time period() const noexcept { return period_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// vol_i and len_i, computed when the graph was built (Dag::vol/len), so
  /// the MINPROCS scan and the classification predicates below are O(1)
  /// lookups. High-density tasks also get the graph's level arrays built at
  /// construction (Dag::topological_order), since MINPROCS and the online
  /// DAG hash read them; low-density tasks never do.
  [[nodiscard]] Time vol() const { return graph_.vol(); }
  [[nodiscard]] Time len() const { return graph_.len(); }

  /// Exact utilization u_i = vol_i / T_i.
  [[nodiscard]] BigRational utilization() const {
    return make_ratio(vol(), period_);
  }
  /// Exact density δ_i = vol_i / min(D_i, T_i).
  [[nodiscard]] BigRational density() const {
    return make_ratio(vol(), std::min(deadline_, period_));
  }
  /// Floating-point views for reporting only (never used in decisions).
  [[nodiscard]] double utilization_approx() const {
    return static_cast<double>(vol()) / static_cast<double>(period_);
  }
  [[nodiscard]] double density_approx() const {
    return static_cast<double>(vol()) /
           static_cast<double>(std::min(deadline_, period_));
  }

  /// δ_i ≥ 1, decided exactly in integers: vol ≥ min(D, T).
  [[nodiscard]] bool is_high_density() const {
    return vol() >= std::min(deadline_, period_);
  }
  [[nodiscard]] bool is_low_density() const { return !is_high_density(); }

  /// u_i ≥ 1 exactly: vol ≥ T (the implicit-deadline literature's "high
  /// utilization" classification from Li et al.).
  [[nodiscard]] bool is_high_utilization() const { return vol() >= period_; }

  [[nodiscard]] DeadlineClass deadline_class() const noexcept {
    if (deadline_ == period_) return DeadlineClass::kImplicit;
    if (deadline_ < period_) return DeadlineClass::kConstrained;
    return DeadlineClass::kArbitrary;
  }

  /// Sequential view (C = vol, D, T) used by PARTITION for low-density tasks.
  [[nodiscard]] SporadicTask to_sequential() const {
    return SporadicTask(vol(), deadline_, period_);
  }

  /// Necessary feasibility on any number of unit-speed processors: the
  /// critical path alone needs len_i ≤ D_i.
  [[nodiscard]] bool critical_path_feasible() const {
    return len() <= deadline_;
  }

  /// Copy of this task with every WCET scaled to ⌈e_v / s⌉ — models running
  /// on speed-s processors (conservative integer rounding; s > 0).
  [[nodiscard]] DagTask scaled_by_speed(double s) const;

 private:
  Dag graph_;
  Time deadline_;
  Time period_;
  std::string name_;
};

}  // namespace fedcons
