// Structure-preserving DAG transformations.
//
// Workload preprocessing utilities a scheduling toolkit is expected to ship:
//
//  * transitive_reduction — drop every edge implied by a longer path. The
//    precedence RELATION (hence every schedule, len, vol, width) is
//    unchanged, but LS/analysis touch fewer edges and DOT renderings become
//    readable. Unique for DAGs (Aho–Garey–Ullman).
//  * merge_linear_chains — collapse maximal v₁→v₂→…→vₖ runs where every
//    interior vertex has exactly one predecessor and one successor into a
//    single vertex with the summed WCET. Preserves len, vol, and the
//    precedence relation among surviving vertices exactly; shrinks the
//    vertex count the analyses iterate over. Caveat: it coarsens
//    NON-PREEMPTIVE scheduling freedom (one long slot instead of k short
//    ones), so an LS makespan on the merged graph may differ slightly —
//    use it as a modelling simplification, not as an equivalence.
//  * sequentialize — total order (topological) chain: the |V|-vertex
//    equivalent of DagTask::to_sequential() when the graph form must be
//    kept.
//
// All three return new graphs; inputs are untouched (value semantics).
#pragma once

#include "fedcons/core/dag.h"

namespace fedcons {

/// The unique transitive reduction.
[[nodiscard]] Dag transitive_reduction(const Dag& dag);

/// True iff no edge is implied by an alternative directed path.
[[nodiscard]] bool is_transitively_reduced(const Dag& dag);

/// Collapse maximal single-in/single-out chains (see header comment).
[[nodiscard]] Dag merge_linear_chains(const Dag& dag);

/// Chain all vertices in topological order (forces fully sequential
/// execution; len becomes vol). Precondition: non-empty.
[[nodiscard]] Dag sequentialize(const Dag& dag);

}  // namespace fedcons
