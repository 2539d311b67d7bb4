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
      name_(std::move(name)) {
  FEDCONS_EXPECTS_MSG(!graph_.empty(), "task graph must be non-empty");
  FEDCONS_EXPECTS_MSG(deadline_ >= 1, "deadline must be positive");
  FEDCONS_EXPECTS_MSG(period_ >= 1, "period must be positive");
  (void)graph_.vol();  // throws when vol or len overflows Time
  // MINPROCS and the online DAG hash read a high-density graph's level
  // arrays: build them once here, so every copy (one per online admission
  // of registered content) carries them instead of rebuilding them.
  if (is_high_density()) (void)graph_.topological_order();
}

DagTask DagTask::scaled_by_speed(double s) const {
  FEDCONS_EXPECTS_MSG(s > 0.0, "speed must be positive");
  std::vector<Time> wcets(graph_.num_vertices());
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    double scaled = std::ceil(static_cast<double>(graph_.wcet(v)) / s);
    wcets[v] = std::max<Time>(1, static_cast<Time>(scaled));
  }
  return DagTask(graph_.with_wcets(std::move(wcets)), deadline_, period_,
                 name_);
}

}  // namespace fedcons
