#include "reference/reference.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <vector>

#include "fedcons/analysis/dbf.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"
#include "fedcons/util/rational.h"

namespace fedcons::reference {

namespace {

// ------------------------------------------------------------------ LS --

void validate_exec_times(const Dag& dag, std::span<const Time> exec_times) {
  FEDCONS_EXPECTS(exec_times.size() == dag.num_vertices());
  for (std::size_t v = 0; v < dag.num_vertices(); ++v) {
    FEDCONS_EXPECTS_MSG(exec_times[v] >= 1 &&
                            exec_times[v] <= dag.wcet(static_cast<VertexId>(v)),
                        "actual execution time must be in [1, WCET]");
  }
}

// Priority key: smaller sorts first in the ready queue.
struct ReadyKey {
  Time primary;     // policy-dependent (negated for "largest first")
  VertexId vertex;  // deterministic tie-break

  bool operator>(const ReadyKey& rhs) const noexcept {
    if (primary != rhs.primary) return primary > rhs.primary;
    return vertex > rhs.vertex;
  }
};

TemplateSchedule run_ls(const Dag& dag, int num_processors,
                        std::span<const Time> exec_times, ListPolicy policy) {
  FEDCONS_EXPECTS(!dag.empty());
  FEDCONS_EXPECTS(num_processors >= 1);
  validate_exec_times(dag, exec_times);

  ++perf_counters().ls_invocations;

  const std::size_t n = dag.num_vertices();
  auto key_of = [&](VertexId v) -> ReadyKey {
    switch (policy) {
      case ListPolicy::kVertexOrder:
        return {0, v};
      case ListPolicy::kCriticalPath:
        return {-dag.bottom_level(v), v};
      case ListPolicy::kLongestWcet:
        return {-dag.wcet(v), v};
    }
    return {0, v};
  };

  std::vector<std::size_t> remaining_preds(n);
  std::priority_queue<ReadyKey, std::vector<ReadyKey>, std::greater<>> ready;
  for (std::size_t v = 0; v < n; ++v) {
    remaining_preds[v] = dag.in_degree(static_cast<VertexId>(v));
    if (remaining_preds[v] == 0) ready.push(key_of(static_cast<VertexId>(v)));
  }

  struct Running {
    Time finish;
    int proc;
    VertexId vertex;
    bool operator>(const Running& rhs) const noexcept {
      if (finish != rhs.finish) return finish > rhs.finish;
      if (vertex != rhs.vertex) return vertex > rhs.vertex;
      return proc > rhs.proc;
    }
  };
  std::priority_queue<Running, std::vector<Running>, std::greater<>> running;
  std::priority_queue<int, std::vector<int>, std::greater<>> free_procs;
  for (int p = 0; p < num_processors; ++p) free_procs.push(p);

  std::vector<ScheduledJob> out;
  out.reserve(n);
  Time now = 0;
  std::size_t scheduled = 0;
  while (scheduled < n) {
    // Dispatch: work-conserving — any available job onto any idle processor.
    while (!free_procs.empty() && !ready.empty()) {
      const ReadyKey k = ready.top();
      ready.pop();
      const int proc = free_procs.top();
      free_procs.pop();
      const Time finish = checked_add(now, exec_times[k.vertex]);
      out.push_back(ScheduledJob{k.vertex, proc, now, finish});
      running.push(Running{finish, proc, k.vertex});
      ++scheduled;
    }
    if (scheduled == n) break;
    FEDCONS_ASSERT(!running.empty());  // else: cycle (excluded by contract)
    // Advance to the next completion; release successors & processors.
    now = running.top().finish;
    while (!running.empty() && running.top().finish == now) {
      const Running r = running.top();
      running.pop();
      free_procs.push(r.proc);
      for (VertexId s : dag.successors(r.vertex)) {
        if (--remaining_preds[s] == 0) ready.push(key_of(s));
      }
    }
  }
  return TemplateSchedule(num_processors, std::move(out));
}

// ----------------------------------------------------------- PARTITION --

BigRational utilization_of(std::span<const SporadicTask> tasks) {
  BigRational sum;
  for (const SporadicTask& t : tasks) sum += t.utilization();
  return sum;
}

/// The acceptance probe for `t` on a bin holding `bin`, recomputed from the
/// member list.
bool fits(const std::vector<SporadicTask>& bin, const SporadicTask& t,
          const PartitionOptions& options) {
  std::vector<SporadicTask> members = bin;
  members.push_back(t);
  switch (options.variant) {
    case PartitionVariant::kExactEdf:
      return edf_schedulable(members);
    case PartitionVariant::kPaperLiteral: {
      // Fig. 4 line 3: Σ_j DBF*(τ_j, D_i) + vol_i ≤ D_i.
      BigRational sum(t.wcet);
      for (const SporadicTask& m : bin) sum += dbf_approx(m, t.deadline);
      return sum <= BigRational(t.deadline);
    }
    case PartitionVariant::kFull:
      break;
  }
  // Long-run capacity, then the k-point demand at every slope breakpoint at
  // or above the candidate's deadline.
  if (utilization_of(members) > BigRational(1)) return false;
  const int points = std::max(1, options.dbf_points);
  Time horizon = 0;
  for (const SporadicTask& m : members) {
    const Time last_step =
        checked_mul(static_cast<Time>(points - 1), m.period);
    horizon = std::max(horizon, checked_add(m.deadline, last_step));
  }
  for (Time bp : dbf_approx_breakpoints(members, points, horizon)) {
    if (bp < t.deadline) continue;
    BigRational sum;
    for (const SporadicTask& m : members) sum += dbf_approx_k(m, bp, points);
    if (sum > BigRational(bp)) return false;
  }
  return true;
}

}  // namespace

TemplateSchedule list_schedule(const Dag& dag, int num_processors,
                               ListPolicy policy) {
  std::vector<Time> wcets(dag.num_vertices());
  for (std::size_t v = 0; v < dag.num_vertices(); ++v) {
    wcets[v] = dag.wcet(static_cast<VertexId>(v));
  }
  return run_ls(dag, num_processors, wcets, policy);
}

TemplateSchedule list_schedule_with_exec_times(const Dag& dag,
                                               int num_processors,
                                               std::span<const Time> exec_times,
                                               ListPolicy policy) {
  return run_ls(dag, num_processors, exec_times, policy);
}

EdfResult edf_schedulable_pdc(std::span<const SporadicTask> tasks,
                              std::size_t max_points) {
  if (tasks.empty()) return {true, std::nullopt};
  if (utilization_of(tasks) > BigRational(1)) return {false, std::nullopt};

  const Time bound = pdc_testing_bound(tasks);
  FEDCONS_EXPECTS_MSG(bound != kTimeInfinity,
                      "no finite PDC testing bound for this task set");

  // Min-heap over the next absolute-deadline point of each task; running
  // demand is bumped by C_j whenever τ_j contributes another deadline.
  struct Point {
    Time t;
    std::size_t task;
    bool operator>(const Point& rhs) const noexcept { return t > rhs.t; }
  };
  std::priority_queue<Point, std::vector<Point>, std::greater<>> heap;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    if (tasks[j].deadline < bound) heap.push({tasks[j].deadline, j});
  }
  Time demand = 0;
  std::size_t points = 0;
  while (!heap.empty()) {
    const Time t = heap.top().t;
    while (!heap.empty() && heap.top().t == t) {
      const auto [pt, j] = heap.top();
      heap.pop();
      // Saturating: an overflowing running demand reads kTimeInfinity and
      // fails the demand ≤ t check below. A saturated next-deadline point
      // can never re-enter the heap.
      demand = saturating_add(demand, tasks[j].wcet);
      const Time next = saturating_add(pt, tasks[j].period);
      if (next < bound) heap.push({next, j});
    }
    if (demand > t) return {false, t};
    FEDCONS_EXPECTS_MSG(++points <= max_points,
                        "PDC point budget exceeded (parameters too large)");
  }
  return {true, std::nullopt};
}

std::optional<MinprocsResult> minprocs(const DagTask& task, int max_processors,
                                       ListPolicy policy) {
  FEDCONS_EXPECTS(max_processors >= 0);
  if (task.len() > task.deadline()) return std::nullopt;
  for (int mu = minprocs_lower_bound(task); mu <= max_processors; ++mu) {
    ++perf_counters().minprocs_scan_iterations;
    TemplateSchedule sigma = reference::list_schedule(task.graph(), mu, policy);
    if (sigma.makespan() <= task.deadline()) {
      return MinprocsResult{mu, std::move(sigma)};
    }
  }
  return std::nullopt;
}

PartitionResult partition_tasks(std::span<const SporadicTask> tasks,
                                int num_processors,
                                const PartitionOptions& options) {
  FEDCONS_EXPECTS(num_processors >= 0);
  PartitionResult result;
  if (tasks.empty()) {
    result.success = true;
    result.assignment.assign(static_cast<std::size_t>(num_processors), {});
    return result;
  }
  if (num_processors == 0) return result;  // fails at input index 0

  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     switch (options.order) {
                       case PartitionOrder::kDeadlineMonotonic:
                         return tasks[a].deadline < tasks[b].deadline;
                       case PartitionOrder::kDensityDescending:
                         return tasks[b].density() < tasks[a].density();
                       case PartitionOrder::kUtilizationDescending:
                         return tasks[b].utilization() < tasks[a].utilization();
                     }
                     return false;
                   });

  const auto bins = static_cast<std::size_t>(num_processors);
  std::vector<std::vector<SporadicTask>> members(bins);
  result.assignment.assign(bins, {});
  for (std::size_t i : order) {
    std::size_t chosen = bins;
    for (std::size_t k = 0; k < bins; ++k) {
      if (!fits(members[k], tasks[i], options)) continue;
      if (options.fit == FitStrategy::kFirstFit) {
        chosen = k;
        break;
      }
      if (chosen == bins) {
        chosen = k;
        continue;
      }
      // Best fit keeps the fullest feasible bin, worst fit the emptiest;
      // ties keep the lower index.
      const BigRational best = utilization_of(members[chosen]);
      const BigRational cur = utilization_of(members[k]);
      if (options.fit == FitStrategy::kBestFit ? best < cur : cur < best) {
        chosen = k;
      }
    }
    if (chosen == bins) {
      result.assignment.clear();
      result.failed_task = i;
      return result;
    }
    members[chosen].push_back(tasks[i]);
    result.assignment[chosen].push_back(i);
  }
  result.success = true;
  return result;
}

}  // namespace fedcons::reference
