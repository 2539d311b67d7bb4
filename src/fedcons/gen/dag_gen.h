// Random DAG topology generators.
//
// Two families standard in the parallel real-time literature:
//  * Layered Erdős–Rényi: vertices are arranged in layers; each forward pair
//    (earlier layer → later layer) becomes an edge with probability p. The
//    workhorse for schedulability experiments on DAG tasks.
//  * Nested fork–join: recursive parallel-section structure matching
//    OpenMP-style programs (the paper's motivating "complex multi-threaded
//    computations").
//
// Generators emit only the topology + WCETs; period/deadline assignment and
// volume scaling live in taskset_gen.h.
#pragma once

#include "fedcons/core/dag.h"
#include "fedcons/util/rng.h"

namespace fedcons {

/// Parameters for the layered Erdős–Rényi generator.
struct LayeredDagParams {
  int min_layers = 2;
  int max_layers = 5;
  int min_width = 1;   ///< vertices per layer, drawn uniformly
  int max_width = 4;
  double edge_probability = 0.4;  ///< per forward pair, adjacent layers
  double skip_probability = 0.1;  ///< per forward pair, non-adjacent layers
  Time min_wcet = 1;
  Time max_wcet = 100;
};

/// Draw a layered DAG. Every vertex in layer k > 0 is guaranteed at least one
/// predecessor in layer k−1 (so layering is honest and the graph has no
/// spurious sources), which also keeps the graph weakly connected enough to
/// behave like a single parallel computation.
[[nodiscard]] Dag generate_layered_dag(Rng& rng, const LayeredDagParams& p);

/// Parameters for the recursive fork–join generator.
struct ForkJoinParams {
  int max_depth = 3;        ///< nesting depth
  int min_branches = 2;
  int max_branches = 3;
  double nest_probability = 0.4;  ///< chance a branch is itself a fork–join
  Time min_wcet = 1;
  Time max_wcet = 100;
};

/// Draw a (possibly nested) fork–join DAG with a single source and sink.
[[nodiscard]] Dag generate_fork_join_dag(Rng& rng, const ForkJoinParams& p);

/// Rescale every WCET by factor `target_vol / current vol` (with rounding,
/// each vertex kept ≥ 1) so the graph's volume approximates target_vol; the
/// exact achieved volume is the return graph's vol(). Preserves topology.
/// Precondition: target_vol >= |V| (each vertex needs at least one unit).
[[nodiscard]] Dag rescale_volume(const Dag& dag, Time target_vol);

}  // namespace fedcons
