#include "fedcons/federated/minprocs.h"

#include <algorithm>

#include "fedcons/listsched/ls_workspace.h"
#include "fedcons/obs/metrics.h"
#include "fedcons/obs/span_tracer.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

int minprocs_lower_bound(const DagTask& task) {
  const Time window = std::min(task.deadline(), task.period());
  const Time lb = ceil_div(task.vol(), window);
  return static_cast<int>(std::max<Time>(1, lb));
}

Time minprocs_scan_cap(const DagTask& task) {
  const Time len = task.len();
  const Time deadline = task.deadline();
  if (len > deadline) return 0;
  // Smallest μ with ⌊(vol + (μ−1)·len)/μ⌋ ≤ D. The floor drops iff
  // vol + (μ−1)·len < μ·(D+1), i.e. μ·(D+1−len) ≥ vol − len + 1; the
  // denominator is ≥ 1 because len ≤ D, and the numerator is ≥ 1 because
  // vol ≥ len, so μ_ub ≥ 1 without clamping.
  const Time mu_ub = ceil_div(task.vol() - len + 1, deadline + 1 - len);
  // The paper's scan never starts below ⌈δ⌉; keep the cap at or above it so
  // the pruned range [lb, cap] is never empty.
  return std::max<Time>(mu_ub, minprocs_lower_bound(task));
}

namespace {

/// Begin a provenance record for one scan (no-op on nullptr).
void provenance_open(MinprocsProvenance* prov, const DagTask& task,
                     int max_processors) {
  if (prov == nullptr) return;
  *prov = MinprocsProvenance{};
  prov->scan_lb = minprocs_lower_bound(task);
  prov->scan_cap = minprocs_scan_cap(task);
  prov->max_processors = max_processors;
}

/// Record one probe's outcome (no-op on nullptr).
void provenance_probe(MinprocsProvenance* prov, int mu, Time makespan) {
  if (prov == nullptr) return;
  prov->probes.push_back(MinprocsProbeRecord{mu, makespan});
  if (makespan < prov->best_makespan) {
    prov->best_makespan = makespan;
    prov->best_mu = mu;
  }
}

void provenance_accept(MinprocsProvenance* prov, int mu) {
  if (prov == nullptr) return;
  prov->satisfied = true;
  prov->chosen_mu = mu;
}

// Bound-guided scan: identical probe sequence and verdict to the seed scan
// over all of [⌈δ⌉, m_r] (reference::minprocs in tests/reference/: its first
// success is ≤ cap, and cap > m_r whenever it rejects), but each probe reuses
// the thread-local workspace, with the policy keys prepared once for the
// whole scan.
std::optional<MinprocsResult> pruned_scan(const DagTask& task,
                                          int max_processors,
                                          ListPolicy policy,
                                          MinprocsProvenance* prov) {
  const Time cap = minprocs_scan_cap(task);
  const int last = static_cast<int>(std::min<Time>(max_processors, cap));
  if (cap < max_processors) {
    perf_counters().ls_probes_pruned +=
        static_cast<std::uint64_t>(max_processors - last);
  }
  LsWorkspace& ws = thread_ls_workspace();
  // The scan probes the same dag up to cap−lb+1 times: schedule against the
  // transitive reduction (cached on the Dag), which cuts the dominant
  // edge-decrement loop without changing any dispatch or finish instant.
  ls_prepare(ws, task.graph(), policy, /*use_reduced_graph=*/true);
  // Probe μ = ⌈δ⌉, ⌈δ⌉+1, … in order and accept the first fit: LS makespans
  // are not monotone in μ, so a bisection could miss the paper's answer.
  PerfCounters& counters = perf_counters();
  for (int mu = minprocs_lower_bound(task); mu <= last; ++mu) {
    FEDCONS_SPAN_V("minprocs", "ls_probe", "mu", mu);
    ls_run_prepared(ws, task.graph(), mu);
    ++counters.minprocs_scan_iterations;
    ++counters.ls_probes_blocked;
    provenance_probe(prov, mu, ws.makespan);
    if (ws.makespan > task.deadline()) continue;
    // ws.jobs holds this probe's dispatch.
    provenance_accept(prov, mu);
    obs::observe_minprocs_mu(mu);
    return MinprocsResult{
        mu, TemplateSchedule(mu, {ws.jobs.begin(), ws.jobs.end()})};
  }
  return std::nullopt;
}

}  // namespace

std::optional<MinprocsResult> minprocs(const DagTask& task, int max_processors,
                                       ListPolicy policy,
                                       const MinprocsOptions& options) {
  FEDCONS_EXPECTS(max_processors >= 0);
  FEDCONS_SPAN_V("minprocs", "scan", "m_r", max_processors);
  provenance_open(options.provenance, task, max_processors);
  // No processor count can beat the critical path.
  if (task.len() > task.deadline()) {
    if (options.provenance != nullptr) {
      options.provenance->len_exceeds_deadline = true;
    }
    return std::nullopt;
  }
  return pruned_scan(task, max_processors, policy, options.provenance);
}

}  // namespace fedcons
