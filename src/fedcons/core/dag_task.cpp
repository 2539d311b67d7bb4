#include "fedcons/core/dag_task.h"

#include <cmath>

#include "fedcons/util/check.h"

namespace fedcons {

const char* to_string(DeadlineClass c) noexcept {
  switch (c) {
    case DeadlineClass::kImplicit: return "implicit";
    case DeadlineClass::kConstrained: return "constrained";
    case DeadlineClass::kArbitrary: return "arbitrary";
  }
  return "?";
}

DagTask::DagTask(Dag graph, Time deadline, Time period, std::string name)
    : graph_(std::move(graph)),
      deadline_(deadline),
      period_(period),
      vol_(0),
      len_(0),
      name_(std::move(name)) {
  FEDCONS_EXPECTS_MSG(!graph_.empty(), "task graph must be non-empty");
  FEDCONS_EXPECTS_MSG(graph_.is_acyclic(), "task graph must be acyclic");
  FEDCONS_EXPECTS_MSG(deadline_ >= 1, "deadline must be positive");
  FEDCONS_EXPECTS_MSG(period_ >= 1, "period must be positive");
  vol_ = graph_.vol();
  len_ = graph_.len();
  // MINPROCS and the online DAG hash read a high-density graph's level
  // arrays: build them once here, so every copy (one per online admission
  // of registered content) carries them instead of rebuilding them.
  if (is_high_density()) (void)graph_.topological_order();
}

DagTask DagTask::scaled_by_speed(double s) const {
  FEDCONS_EXPECTS_MSG(s > 0.0, "speed must be positive");
  Dag g;
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    double scaled = std::ceil(static_cast<double>(graph_.wcet(v)) / s);
    g.add_vertex(std::max<Time>(1, static_cast<Time>(scaled)));
  }
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    for (VertexId w : graph_.successors(v)) g.add_edge(v, w);
  }
  return DagTask(std::move(g), deadline_, period_, name_);
}

}  // namespace fedcons
