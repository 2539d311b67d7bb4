// The schedulability algorithms, as one table.
//
// Every schedulability algorithm in the repository — FEDCONS and its
// variants, the federated baselines, the partitioned and global baselines,
// and the arbitrary-deadline extension — answers the same question: does
// task system τ fit on m unit-speed processors? An Algorithm gives that
// question one shape, and builtin_algorithms() lists the built-ins once, so
// tools, experiments, and tests select them by name instead of hard-wiring
// each function signature. Adding an algorithm is one row here plus the
// replay of its composition in the conformance battery (conform/oracle.h),
// which takes its deadline gating from the row of the same name.
//
// Built-in rows, in table order (case-insensitive name order):
//   ARBFED         — arbitrary-deadline federated, pipelined clusters
//   ARBFED-clamp   — arbitrary-deadline federated, clamp D to min(D, T)
//   FED-LI-adapt   — Li et al. constrained-deadline adaptation
//   FED-LI-implicit— Li et al. (ECRTS'14) federated, implicit-deadline only
//   FEDCONS        — the paper's algorithm, full Baruah–Fisher PARTITION
//   FEDCONS-lit    — paper-literal Fig. 4 PARTITION (demand check only)
//   GEDF-density   — analytical global-EDF density test
//   P-DM           — fully-partitioned deadline-monotonic FP with exact RTA
//   P-SEQ          — fully-partitioned EDF, sequentialized, no federation
#pragma once

#include <functional>
#include <span>
#include <string>

#include "fedcons/core/task_system.h"

namespace fedcons {

/// A named yes/no schedulability test over (τ, m). Experiments also build
/// their own values (E3's simulation bracket, E8's FEDCONS variants).
struct Algorithm {
  std::string name;         ///< display name; lookup ignores case
  std::string description;  ///< one line (fedcons_cli --list-algos)
  /// Widest deadline class the algorithm is defined for, under the
  /// containment implicit ⊂ constrained ⊂ arbitrary.
  DeadlineClass max_deadline_class = DeadlineClass::kConstrained;
  /// The verdict. Preconditions: m >= 1 and supports(system) — the wrapped
  /// algorithm throws ContractViolation otherwise. Must be safe to call
  /// concurrently on distinct systems (the batch runner evaluates trials in
  /// parallel).
  std::function<bool(const TaskSystem&, int)> admits;

  /// True iff `system`'s deadline class is within max_deadline_class.
  [[nodiscard]] bool supports(const TaskSystem& system) const noexcept;
};

/// The built-in algorithms listed above, in that order.
[[nodiscard]] std::span<const Algorithm> builtin_algorithms();

/// The built-in row whose name equals `name` ignoring ASCII case. Throws
/// ContractViolation when there is none.
[[nodiscard]] const Algorithm& find_algorithm(const std::string& name);

}  // namespace fedcons
