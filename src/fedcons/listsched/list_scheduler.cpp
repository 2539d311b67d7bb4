#include "fedcons/listsched/list_scheduler.h"

#include <algorithm>

#include "fedcons/listsched/ls_workspace.h"
#include "fedcons/util/check.h"

namespace fedcons {

const char* to_string(ListPolicy p) noexcept {
  switch (p) {
    case ListPolicy::kVertexOrder: return "vertex-order";
    case ListPolicy::kCriticalPath: return "critical-path";
    case ListPolicy::kLongestWcet: return "longest-wcet";
  }
  return "?";
}

namespace {

void validate_exec_times(const Dag& dag, std::span<const Time> exec_times) {
  FEDCONS_EXPECTS(exec_times.size() == dag.num_vertices());
  for (std::size_t v = 0; v < dag.num_vertices(); ++v) {
    FEDCONS_EXPECTS_MSG(exec_times[v] >= 1 &&
                            exec_times[v] <= dag.wcet(static_cast<VertexId>(v)),
                        "actual execution time must be in [1, WCET]");
  }
}

// Run the workspace core and materialize the result (the only allocation of
// the whole pass). ws.jobs is copied, not moved, so the buffer's capacity
// stays with the arena.
TemplateSchedule run_with_workspace(const Dag& dag, int num_processors,
                                    std::span<const Time> exec_times,
                                    ListPolicy policy) {
  LsWorkspace& ws = thread_ls_workspace();
  ls_prepare(ws, dag, policy);
  ls_run_prepared(ws, dag, num_processors, exec_times);
  return TemplateSchedule(num_processors,
                          {ws.jobs.begin(), ws.jobs.end()});
}

}  // namespace

TemplateSchedule list_schedule(const Dag& dag, int num_processors,
                               ListPolicy policy) {
  FEDCONS_EXPECTS(!dag.empty());
  FEDCONS_EXPECTS(num_processors >= 1);
  return run_with_workspace(dag, num_processors, {}, policy);
}

TemplateSchedule list_schedule_with_exec_times(const Dag& dag,
                                               int num_processors,
                                               std::span<const Time> exec_times,
                                               ListPolicy policy) {
  FEDCONS_EXPECTS(!dag.empty());
  FEDCONS_EXPECTS(num_processors >= 1);
  validate_exec_times(dag, exec_times);
  return run_with_workspace(dag, num_processors, exec_times, policy);
}

Time makespan_lower_bound(const Dag& dag, int num_processors) {
  FEDCONS_EXPECTS(num_processors >= 1);
  return std::max(dag.len(), ceil_div(dag.vol(), num_processors));
}

Time graham_bound(const Dag& dag, int num_processors) {
  FEDCONS_EXPECTS(num_processors >= 1);
  // T_LS ≤ len + (vol − len)/m, i.e. m·T_LS ≤ vol + (m−1)·len. The makespan
  // is integral, so floor of the real bound is a valid upper bound.
  Time m = num_processors;
  return floor_div(checked_add(dag.vol(), checked_mul(m - 1, dag.len())), m);
}

}  // namespace fedcons
