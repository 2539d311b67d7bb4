#include "fedcons/listsched/anomaly.h"

#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {

AnomalyInstance make_graham_anomaly_instance() {
  Dag g = DagBuilder{}
              .vertices({3, 2, 2, 2, 4, 4, 4, 4, 9})
              .edge(0, 8)
              .fan_out(3, {4, 5, 6, 7})
              .build();

  AnomalyInstance inst;
  inst.processors = 3;
  inst.reduced_exec_times = {2, 1, 1, 1, 3, 3, 3, 3, 8};
  inst.wcet_makespan = list_schedule(g, inst.processors).makespan();
  inst.reduced_makespan =
      list_schedule_with_exec_times(g, inst.processors,
                                    inst.reduced_exec_times)
          .makespan();
  inst.dag = std::move(g);
  // The whole point: shorter jobs, longer schedule.
  FEDCONS_ENSURES(inst.reduced_makespan > inst.wcet_makespan);
  return inst;
}

AnomalyInstance find_anomaly(const Dag& dag, int processors,
                             std::uint64_t seed, int attempts) {
  FEDCONS_EXPECTS(processors >= 1);
  FEDCONS_EXPECTS(attempts >= 1);
  Rng rng(seed);
  const Time base = list_schedule(dag, processors).makespan();
  std::vector<Time> exec(dag.num_vertices());
  for (int a = 0; a < attempts; ++a) {
    for (std::size_t v = 0; v < dag.num_vertices(); ++v) {
      Time w = dag.wcet(static_cast<VertexId>(v));
      exec[v] = rng.uniform_int(1, w);
    }
    Time reduced =
        list_schedule_with_exec_times(dag, processors, exec).makespan();
    if (reduced > base) {
      AnomalyInstance inst;
      inst.dag = dag;
      inst.processors = processors;
      inst.reduced_exec_times = exec;
      inst.wcet_makespan = base;
      inst.reduced_makespan = reduced;
      return inst;
    }
  }
  return AnomalyInstance{};  // processors == 0 signals "none found"
}

}  // namespace fedcons
