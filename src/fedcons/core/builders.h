// Canned DAG topologies, plus the paper's worked examples (Figure 1 /
// Example 1 and Example 2). Ad-hoc graphs use DagBuilder (core/dag.h).
#pragma once

#include <span>
#include <vector>

#include "fedcons/core/dag.h"
#include "fedcons/core/dag_task.h"
#include "fedcons/core/task_system.h"

namespace fedcons {

/// A pure chain v0 → v1 → … (len == vol).
[[nodiscard]] Dag make_chain(std::span<const Time> wcets);

/// Fork–join: source → each of `branch_wcets` in parallel → sink.
[[nodiscard]] Dag make_fork_join(Time source_wcet,
                                 std::span<const Time> branch_wcets,
                                 Time sink_wcet);

/// `count` fully independent vertices (maximum parallelism, len == max wcet).
[[nodiscard]] Dag make_independent(std::span<const Time> wcets);

/// The sporadic DAG task of the paper's Figure 1 / Example 1: five vertices,
/// five precedence edges, vol = 9, len = 6, D = 16, T = 20, hence
/// δ = 9/16 and u = 9/20 (a low-density task).
///
/// The figure's exact WCET placement is not fully legible in the text
/// rendition of the paper; this reconstruction uses WCETs {1, 2, 3, 2, 1}
/// with edges v0→v1, v0→v2, v1→v3, v2→v3, v2→v4, which matches every stated
/// metric (|V| = 5, |E| = 5, vol = 9, len = 6 along v0→v2→v3).
[[nodiscard]] DagTask make_paper_example_task();

/// The paper's Example 2 family: n single-vertex tasks with e_v = 1, D = 1,
/// T = n. U_sum ≈ 1 and len_i ≤ D_i for every task, yet the system needs a
/// speed-n processor — demonstrating that capacity augmentation bounds are
/// meaningless for constrained deadlines.
[[nodiscard]] TaskSystem make_capacity_augmentation_counterexample(int n);

}  // namespace fedcons
