#include "fedcons/core/builders.h"

#include <utility>

#include "fedcons/util/check.h"

namespace fedcons {

Dag make_chain(std::span<const Time> wcets) {
  FEDCONS_EXPECTS(!wcets.empty());
  DagBuilder g;
  VertexId prev = g.add_vertex(wcets[0]);
  for (std::size_t i = 1; i < wcets.size(); ++i) {
    VertexId cur = g.add_vertex(wcets[i]);
    g.add_edge(prev, cur);
    prev = cur;
  }
  return g.build();
}

Dag make_fork_join(Time source_wcet, std::span<const Time> branch_wcets,
                   Time sink_wcet) {
  FEDCONS_EXPECTS(!branch_wcets.empty());
  DagBuilder g;
  VertexId src = g.add_vertex(source_wcet);
  VertexId sink_placeholder = 0;  // assigned after branches
  std::vector<VertexId> branches;
  branches.reserve(branch_wcets.size());
  for (Time w : branch_wcets) {
    VertexId b = g.add_vertex(w);
    g.add_edge(src, b);
    branches.push_back(b);
  }
  sink_placeholder = g.add_vertex(sink_wcet);
  for (VertexId b : branches) g.add_edge(b, sink_placeholder);
  return g.build();
}

Dag make_independent(std::span<const Time> wcets) {
  FEDCONS_EXPECTS(!wcets.empty());
  DagBuilder g;
  for (Time w : wcets) g.add_vertex(w);
  return g.build();
}

DagTask make_paper_example_task() {
  Dag g = DagBuilder{}
              .vertices({1, 2, 3, 2, 1})
              .edge(0, 1)
              .edge(0, 2)
              .edge(1, 3)
              .edge(2, 3)
              .edge(2, 4)
              .build();
  DagTask task(std::move(g), /*deadline=*/16, /*period=*/20, "fig1-example");
  // Pin the metrics the paper states for Example 1.
  FEDCONS_ENSURES(task.vol() == 9);
  FEDCONS_ENSURES(task.len() == 6);
  FEDCONS_ENSURES(task.is_low_density());
  return task;
}

TaskSystem make_capacity_augmentation_counterexample(int n) {
  FEDCONS_EXPECTS(n >= 1);
  TaskSystem sys;
  for (int i = 0; i < n; ++i) {
    sys.add(DagTask(DagBuilder{}.vertex(1).build(), /*deadline=*/1,
                    /*period=*/n, "ex2-tau" + std::to_string(i + 1)));
  }
  return sys;
}

}  // namespace fedcons
