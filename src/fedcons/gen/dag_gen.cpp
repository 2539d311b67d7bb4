#include "fedcons/gen/dag_gen.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fedcons/util/check.h"

namespace fedcons {

Dag generate_layered_dag(Rng& rng, const LayeredDagParams& p) {
  FEDCONS_EXPECTS(p.min_layers >= 1 && p.max_layers >= p.min_layers);
  FEDCONS_EXPECTS(p.min_width >= 1 && p.max_width >= p.min_width);
  FEDCONS_EXPECTS(p.min_wcet >= 1 && p.max_wcet >= p.min_wcet);
  FEDCONS_EXPECTS(p.edge_probability >= 0.0 && p.edge_probability <= 1.0);
  FEDCONS_EXPECTS(p.skip_probability >= 0.0 && p.skip_probability <= 1.0);

  const int layers = static_cast<int>(
      rng.uniform_int(p.min_layers, p.max_layers));
  DagBuilder g;
  std::vector<std::vector<VertexId>> layer(static_cast<std::size_t>(layers));
  for (auto& l : layer) {
    const int width =
        static_cast<int>(rng.uniform_int(p.min_width, p.max_width));
    for (int i = 0; i < width; ++i) {
      l.push_back(g.add_vertex(rng.uniform_int(p.min_wcet, p.max_wcet)));
    }
  }
  for (std::size_t k = 1; k < layer.size(); ++k) {
    for (VertexId v : layer[k]) {
      bool has_pred = false;
      // Adjacent layer edges.
      for (VertexId u : layer[k - 1]) {
        if (rng.bernoulli(p.edge_probability)) {
          g.add_edge(u, v);
          has_pred = true;
        }
      }
      // Skip edges from any earlier layer.
      for (std::size_t j = 0; j + 1 < k; ++j) {
        for (VertexId u : layer[j]) {
          if (rng.bernoulli(p.skip_probability)) g.add_edge(u, v);
        }
      }
      // Honest layering: guarantee a predecessor in layer k−1.
      if (!has_pred) {
        const auto& prev = layer[k - 1];
        VertexId u = prev[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(prev.size()) - 1))];
        g.add_edge(u, v);
      }
    }
  }
  return g.build();
}

namespace {

// Emits a fork–join block between fresh source/sink vertices; returns
// (source, sink).
std::pair<VertexId, VertexId> emit_fork_join(DagBuilder& g, Rng& rng,
                                             const ForkJoinParams& p,
                                             int depth) {
  VertexId src = g.add_vertex(rng.uniform_int(p.min_wcet, p.max_wcet));
  VertexId sink = g.add_vertex(rng.uniform_int(p.min_wcet, p.max_wcet));
  const int branches =
      static_cast<int>(rng.uniform_int(p.min_branches, p.max_branches));
  for (int b = 0; b < branches; ++b) {
    if (depth < p.max_depth && rng.bernoulli(p.nest_probability)) {
      auto [s, t] = emit_fork_join(g, rng, p, depth + 1);
      g.add_edge(src, s);
      g.add_edge(t, sink);
    } else {
      VertexId v = g.add_vertex(rng.uniform_int(p.min_wcet, p.max_wcet));
      g.add_edge(src, v);
      g.add_edge(v, sink);
    }
  }
  return {src, sink};
}

}  // namespace

Dag generate_fork_join_dag(Rng& rng, const ForkJoinParams& p) {
  FEDCONS_EXPECTS(p.max_depth >= 1);
  FEDCONS_EXPECTS(p.min_branches >= 1 && p.max_branches >= p.min_branches);
  FEDCONS_EXPECTS(p.min_wcet >= 1 && p.max_wcet >= p.min_wcet);
  FEDCONS_EXPECTS(p.nest_probability >= 0.0 && p.nest_probability <= 1.0);
  DagBuilder g;
  emit_fork_join(g, rng, p, 1);
  return g.build();
}

Dag rescale_volume(const Dag& dag, Time target_vol) {
  FEDCONS_EXPECTS(!dag.empty());
  FEDCONS_EXPECTS(target_vol >= static_cast<Time>(dag.num_vertices()));
  const double factor = static_cast<double>(target_vol) /
                        static_cast<double>(dag.vol());
  std::vector<Time> wcets(dag.num_vertices());
  for (VertexId v = 0; v < dag.num_vertices(); ++v) {
    double scaled = std::llround(static_cast<double>(dag.wcet(v)) * factor);
    wcets[v] = std::max<Time>(1, static_cast<Time>(scaled));
  }
  return dag.with_wcets(std::move(wcets));
}

}  // namespace fedcons
