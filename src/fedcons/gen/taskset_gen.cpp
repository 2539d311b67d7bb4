#include "fedcons/gen/taskset_gen.h"

#include <algorithm>
#include <cmath>

#include "fedcons/gen/uunifast.h"
#include "fedcons/util/check.h"

namespace fedcons {

const char* to_string(DagTopology t) noexcept {
  switch (t) {
    case DagTopology::kLayered: return "layered";
    case DagTopology::kForkJoin: return "fork-join";
    case DagTopology::kMixed: return "mixed";
  }
  return "?";
}

TaskSystem generate_task_system(Rng& rng, const TaskSetParams& params,
                                GenerationInfo* info) {
  FEDCONS_EXPECTS(params.num_tasks >= 1);
  FEDCONS_EXPECTS(params.total_utilization > 0.0);
  FEDCONS_EXPECTS(params.period_min >= 1.0 &&
                  params.period_max >= params.period_min);
  FEDCONS_EXPECTS(params.deadline_ratio_min > 0.0 &&
                  params.deadline_ratio_max >= params.deadline_ratio_min &&
                  params.deadline_ratio_max <= 1.0);

  const auto utils = uunifast_discard(rng, params.num_tasks,
                                      params.total_utilization,
                                      params.utilization_cap);
  TaskSystem sys;
  GenerationInfo local;
  for (int i = 0; i < params.num_tasks; ++i) {
    // Topology.
    DagTopology topo = params.topology;
    if (topo == DagTopology::kMixed) {
      topo = rng.bernoulli(0.5) ? DagTopology::kLayered
                                : DagTopology::kForkJoin;
    }
    Dag shape = (topo == DagTopology::kLayered)
                    ? generate_layered_dag(rng, params.layered)
                    : generate_fork_join_dag(rng, params.fork_join);

    // Period, target volume, deadline.
    const double period_real =
        rng.log_uniform_real(params.period_min, params.period_max);
    const Time period = std::max<Time>(1, static_cast<Time>(
                                              std::llround(period_real)));
    const double u = utils[static_cast<std::size_t>(i)];
    const Time target_vol =
        std::max<Time>(static_cast<Time>(shape.num_vertices()),
                       static_cast<Time>(std::llround(
                           u * static_cast<double>(period))));
    Dag g = rescale_volume(shape, target_vol);

    const double ratio = rng.uniform_real(
        params.deadline_ratio_min,
        std::nextafter(params.deadline_ratio_max,
                       params.deadline_ratio_max + 1.0));
    Time deadline = std::max<Time>(1, static_cast<Time>(std::llround(
                                          ratio * static_cast<double>(period))));
    deadline = std::min(deadline, period);  // keep constrained
    if (g.len() > deadline) {
      deadline = g.len();
      ++local.deadline_clamps;
      // A clamp can push D past T for very parallel-hostile draws; keep the
      // system constrained-deadline by stretching the period too.
      // (len > T would make even back-to-back releases infeasible.)
    }
    const Time final_period = std::max(period, deadline);

    sys.add(DagTask(std::move(g), deadline, final_period,
                    "gen-tau" + std::to_string(i + 1)));
  }
  local.achieved_utilization = sys.total_utilization_approx();
  if (info != nullptr) *info = local;
  return sys;
}

}  // namespace fedcons
