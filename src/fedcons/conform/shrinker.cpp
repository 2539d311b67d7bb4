#include "fedcons/conform/shrinker.h"

#include <optional>
#include <utility>
#include <vector>

#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

namespace {

/// Rebuild a task's graph with one edge removed. Edge `index` counts edges in
/// (vertex, successor-position) iteration order.
std::optional<DagTask> drop_edge(const DagTask& task, std::size_t index) {
  const Dag& g = task.graph();
  DagBuilder out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) out.add_vertex(g.wcet(v));
  std::size_t seen = 0;
  bool dropped = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.successors(v)) {
      if (seen++ == index) {
        dropped = true;
        continue;
      }
      out.add_edge(v, w);
    }
  }
  if (!dropped) return std::nullopt;
  return DagTask(out.build(), task.deadline(), task.period(), task.name());
}

/// Rebuild a task's graph with vertex `victim` (and its incident edges)
/// removed; surviving vertices keep their relative order. Dropping edges only
/// relaxes precedence, so the result is a valid (weaker) workload.
std::optional<DagTask> drop_vertex(const DagTask& task, VertexId victim) {
  const Dag& g = task.graph();
  if (g.num_vertices() <= 1) return std::nullopt;
  DagBuilder out;
  std::vector<VertexId> remap(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == victim) continue;
    remap[v] = out.add_vertex(g.wcet(v));
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == victim) continue;
    for (VertexId w : g.successors(v)) {
      if (w == victim) continue;
      out.add_edge(remap[v], remap[w]);
    }
  }
  return DagTask(out.build(), task.deadline(), task.period(), task.name());
}

/// Rebuild a task with vertex `v`'s WCET replaced by `wcet` (>= 1).
DagTask with_wcet(const DagTask& task, VertexId victim, Time wcet) {
  const Dag& g = task.graph();
  std::vector<Time> wcets(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) wcets[v] = g.wcet(v);
  wcets[victim] = wcet;
  return DagTask(g.with_wcets(std::move(wcets)), task.deadline(),
                 task.period(), task.name());
}

TaskSystem replace_task(const TaskSystem& system, TaskId victim,
                        DagTask replacement) {
  std::vector<DagTask> tasks;
  tasks.reserve(system.size());
  for (TaskId i = 0; i < system.size(); ++i) {
    tasks.push_back(i == victim ? std::move(replacement) : system[i]);
  }
  return TaskSystem(std::move(tasks));
}

TaskSystem remove_task(const TaskSystem& system, TaskId victim) {
  std::vector<DagTask> tasks;
  tasks.reserve(system.size() - 1);
  for (TaskId i = 0; i < system.size(); ++i) {
    if (i != victim) tasks.push_back(system[i]);
  }
  return TaskSystem(std::move(tasks));
}

}  // namespace

ShrinkResult shrink_violation(const ConformanceEntry& entry, TaskSystem system,
                              int m, const SimConfig& config,
                              std::size_t max_probes) {
  FEDCONS_EXPECTS(max_probes >= 1);
  ShrinkResult result;

  const auto violates = [&](const TaskSystem& s, int procs) {
    ++result.probes;
    ++perf_counters().conform_shrink_steps;
    return entry.run(s, procs, config).violation();
  };
  FEDCONS_EXPECTS_MSG(violates(system, m),
                      "shrink_violation requires a violating input");

  bool progressed = true;
  while (progressed && result.probes < max_probes) {
    progressed = false;

    // 1. Drop a whole task.
    for (TaskId i = 0; i < system.size() && result.probes < max_probes; ++i) {
      if (system.size() <= 1) break;
      TaskSystem candidate = remove_task(system, i);
      if (violates(candidate, m)) {
        system = std::move(candidate);
        ++result.reductions;
        progressed = true;
        break;
      }
    }
    if (progressed) continue;

    // 2. Reduce the processor count.
    if (m > 1 && result.probes < max_probes && violates(system, m - 1)) {
      --m;
      ++result.reductions;
      progressed = true;
      continue;
    }

    // 3. Drop a precedence edge.
    for (TaskId i = 0; i < system.size() && !progressed; ++i) {
      const std::size_t edges = system[i].graph().num_edges();
      for (std::size_t e = 0; e < edges && result.probes < max_probes; ++e) {
        auto reduced = drop_edge(system[i], e);
        if (!reduced) break;
        TaskSystem candidate = replace_task(system, i, *std::move(reduced));
        if (violates(candidate, m)) {
          system = std::move(candidate);
          ++result.reductions;
          progressed = true;
          break;
        }
      }
    }
    if (progressed) continue;

    // 4. Drop a vertex.
    for (TaskId i = 0; i < system.size() && !progressed; ++i) {
      const auto vertices =
          static_cast<VertexId>(system[i].graph().num_vertices());
      for (VertexId v = 0; v < vertices && result.probes < max_probes; ++v) {
        auto reduced = drop_vertex(system[i], v);
        if (!reduced) break;
        TaskSystem candidate = replace_task(system, i, *std::move(reduced));
        if (violates(candidate, m)) {
          system = std::move(candidate);
          ++result.reductions;
          progressed = true;
          break;
        }
      }
    }
    if (progressed) continue;

    // 5./6. Halve, then decrement, vertex WCETs.
    for (const bool halve : {true, false}) {
      for (TaskId i = 0; i < system.size() && !progressed; ++i) {
        const auto vertices =
            static_cast<VertexId>(system[i].graph().num_vertices());
        for (VertexId v = 0; v < vertices && result.probes < max_probes; ++v) {
          const Time wcet = system[i].graph().wcet(v);
          const Time target = halve ? wcet / 2 : wcet - 1;
          if (target < 1 || target == wcet) continue;
          TaskSystem candidate =
              replace_task(system, i, with_wcet(system[i], v, target));
          if (violates(candidate, m)) {
            system = std::move(candidate);
            ++result.reductions;
            progressed = true;
            break;
          }
        }
      }
      if (progressed) break;
    }
  }

  result.system = std::move(system);
  result.m = m;
  return result;
}

}  // namespace fedcons
