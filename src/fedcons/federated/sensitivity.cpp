#include "fedcons/federated/sensitivity.h"

#include <cmath>

#include "fedcons/util/check.h"

namespace fedcons {

namespace {

/// Dag with every WCET scaled to ⌈α·e_v⌉ (min 1).
Dag scale_dag(const Dag& dag, double alpha) {
  std::vector<Time> wcets(dag.num_vertices());
  for (VertexId v = 0; v < dag.num_vertices(); ++v) {
    double scaled = std::ceil(static_cast<double>(dag.wcet(v)) * alpha);
    wcets[v] = std::max<Time>(1, static_cast<Time>(scaled));
  }
  return dag.with_wcets(std::move(wcets));
}

/// Largest accepted scale on the grid [1, max_scale] under `accepts`,
/// bisection followed by a downward verification walk; 0.0 when α = 1 is
/// rejected, max_scale when even that is accepted.
double max_accepted_scale(const std::function<bool(double)>& accepts,
                          double max_scale, double resolution) {
  if (!accepts(1.0)) return 0.0;
  if (accepts(max_scale)) return max_scale;
  double lo = 1.0;         // accepted
  double hi = max_scale;   // rejected
  while (hi - lo > resolution) {
    double mid = 0.5 * (lo + hi);
    if (accepts(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Walk down until actually accepted (guards against non-monotone pockets).
  double alpha = lo;
  while (alpha > 1.0 && !accepts(alpha)) alpha -= resolution;
  return alpha < 1.0 ? 1.0 : alpha;
}

}  // namespace

TaskSystem scale_task_wcets(const TaskSystem& system, TaskId target,
                            double alpha) {
  FEDCONS_EXPECTS(target < system.size());
  FEDCONS_EXPECTS(alpha > 0.0);
  TaskSystem out;
  for (TaskId i = 0; i < system.size(); ++i) {
    const DagTask& t = system[i];
    Dag g = (i == target) ? scale_dag(t.graph(), alpha) : t.graph();
    out.add(DagTask(std::move(g), t.deadline(), t.period(), t.name()));
  }
  return out;
}

std::vector<TaskMargin> wcet_sensitivity(const TaskSystem& system, int m,
                                         const SensitivityTest& test,
                                         double max_scale,
                                         double resolution) {
  FEDCONS_EXPECTS(m >= 1);
  FEDCONS_EXPECTS(max_scale >= 1.0);
  FEDCONS_EXPECTS(resolution > 0.0);
  std::vector<TaskMargin> out;
  out.reserve(system.size());
  for (TaskId i = 0; i < system.size(); ++i) {
    auto accepts = [&](double alpha) {
      return test(scale_task_wcets(system, i, alpha), m);
    };
    out.push_back({i, max_accepted_scale(accepts, max_scale, resolution)});
  }
  return out;
}

double system_wcet_margin(const TaskSystem& system, int m,
                          const SensitivityTest& test, double max_scale,
                          double resolution) {
  FEDCONS_EXPECTS(m >= 1);
  FEDCONS_EXPECTS(max_scale >= 1.0);
  FEDCONS_EXPECTS(resolution > 0.0);
  auto accepts = [&](double alpha) {
    // Uniform WCET growth by α == running on speed-(1/α) processors.
    return test(system.scaled_by_speed(1.0 / alpha), m);
  };
  return max_accepted_scale(accepts, max_scale, resolution);
}

}  // namespace fedcons
