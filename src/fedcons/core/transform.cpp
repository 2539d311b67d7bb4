#include "fedcons/core/transform.h"

#include <vector>

#include "fedcons/util/check.h"

namespace fedcons {

Dag transitive_reduction(const Dag& dag) {
  auto reach = dag.transitive_closure();
  DagBuilder out;
  for (VertexId v = 0; v < dag.num_vertices(); ++v) out.add_vertex(dag.wcet(v));
  for (VertexId u = 0; u < dag.num_vertices(); ++u) {
    for (VertexId v : dag.successors(u)) {
      // (u, v) is redundant iff some other successor of u reaches v.
      bool redundant = false;
      for (VertexId w : dag.successors(u)) {
        if (w != v && reach[w][v]) {
          redundant = true;
          break;
        }
      }
      if (!redundant) out.add_edge(u, v);
    }
  }
  return out.build();
}

bool is_transitively_reduced(const Dag& dag) {
  auto reach = dag.transitive_closure();
  for (VertexId u = 0; u < dag.num_vertices(); ++u) {
    for (VertexId v : dag.successors(u)) {
      for (VertexId w : dag.successors(u)) {
        if (w != v && reach[w][v]) return false;
      }
    }
  }
  return true;
}

Dag merge_linear_chains(const Dag& dag) {
  const std::size_t n = dag.num_vertices();
  // A vertex v continues the chain of its predecessor p when
  // out_degree(p) == 1 and in_degree(v) == 1: merge v into p's group.
  std::vector<VertexId> group(n);
  for (VertexId v : dag.topological_order()) {
    group[v] = v;
    if (dag.in_degree(v) == 1) {
      VertexId p = dag.predecessors(v)[0];
      if (dag.out_degree(p) == 1) group[v] = group[p];
    }
  }
  // Build: one vertex per group head (in topo order of heads for stable,
  // deterministic ids).
  std::vector<Time> group_wcet(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    group_wcet[group[v]] = checked_add(group_wcet[group[v]], dag.wcet(v));
  }
  std::vector<VertexId> new_id(n, 0);
  DagBuilder out;
  for (VertexId v : dag.topological_order()) {
    if (group[v] == v) new_id[v] = out.add_vertex(group_wcet[v]);
  }
  for (VertexId v = 0; v < n; ++v) new_id[v] = new_id[group[v]];
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : dag.successors(u)) {
      VertexId a = new_id[u];
      VertexId b = new_id[v];
      if (a != b && !out.has_edge(a, b)) out.add_edge(a, b);
    }
  }
  return out.build();
}

Dag sequentialize(const Dag& dag) {
  FEDCONS_EXPECTS(!dag.empty());
  DagBuilder out;
  for (VertexId v = 0; v < dag.num_vertices(); ++v) out.add_vertex(dag.wcet(v));
  const auto& topo = dag.topological_order();
  for (std::size_t i = 1; i < topo.size(); ++i) {
    out.add_edge(topo[i - 1], topo[i]);
  }
  return out.build();
}

}  // namespace fedcons
