#include "fedcons/conform/isolation.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fedcons/core/io.h"
#include "fedcons/engine/batch_runner.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/obs/span_tracer.h"
#include "fedcons/sim/system_sim.h"
#include "fedcons/util/check.h"
#include "fedcons/util/mini_json.h"

namespace fedcons {

namespace {

/// Everything one trial produces; written into the trial's result slot so
/// aggregation is independent of execution order.
struct TrialResult {
  bool admitted = false;
  bool incident = false;
  std::string target;
  FaultPlan plan;
  SimConfig sim;
  std::uint64_t target_misses = 0;
  SimStats cross;           ///< merged non-target stats
  std::string system_text;  ///< serialized only when an incident occurred
  PerfCounters delta;
};

bool constrained_deadlines(const TaskSystem& system) {
  for (TaskId t = 0; t < system.size(); ++t) {
    if (system[t].deadline() > system[t].period()) return false;
  }
  return true;
}

}  // namespace

IsolationConfig default_isolation_config() {
  IsolationConfig config;
  config.gen.num_tasks = 6;
  config.gen.period_min = 50.0;
  config.gen.period_max = 1000.0;
  config.gen.topology = DagTopology::kMixed;
  config.sim.horizon = 5000;
  config.sim.release = ReleaseModel::kSporadic;
  config.sim.jitter_frac = 1.0;
  config.sim.exec = ExecModel::kUniform;
  config.sim.exec_lo = 0.5;
  return config;
}

ConformanceEntry make_isolation_entry(FaultPlan plan,
                                      SupervisionMode supervision) {
  ConformanceEntry entry;
  entry.name = std::string("FEDCONS-isolation@") + to_string(supervision);
  entry.run = [plan = std::move(plan), supervision](
                  const TaskSystem& system, int m,
                  const SimConfig& config) -> ConformanceOutcome {
    ConformanceOutcome outcome;
    if (!constrained_deadlines(system)) return outcome;
    outcome.supported = true;
    const FedconsResult result = fedcons_schedule(system, m);
    if (!result.success) return outcome;
    outcome.admitted = true;
    SimConfig faulted = config;
    faulted.faults = plan;
    faulted.supervision = supervision;
    const SystemSimReport report = simulate_system(system, result, faulted);
    // Merge only the tasks the plan does NOT target: a violation is then
    // exactly "an innocent task missed a deadline". Shrinker moves that drop
    // the target (plan inert → no faults) or the victim both destroy the
    // violation, so descent converges toward a minimal {target, victim}.
    for (TaskId t = 0; t < system.size(); ++t) {
      if (plan.find(task_display_name(system, t)) != nullptr) continue;
      outcome.sim.merge(report.per_task[t]);
    }
    return outcome;
  };
  return entry;
}

IsolationReport run_isolation_fuzz(const IsolationConfig& config) {
  FEDCONS_EXPECTS(config.m >= 1);
  FEDCONS_EXPECTS(config.trials >= 1);
  FEDCONS_EXPECTS(config.util_lo <= config.util_hi);

  BatchRunner runner(config.num_threads);
  const auto results = runner.run_trials<TrialResult>(
      config.trials, config.master_seed, [&](std::size_t, Rng& rng) {
        TrialResult result;
        const PerfCounters before = perf_counters();
        ++perf_counters().fault_isolation_trials;
        FEDCONS_SPAN("fault", "isolation-trial");

        TaskSetParams params = config.gen;
        const double target_util =
            config.util_lo == config.util_hi
                ? config.util_lo
                : rng.uniform_real(config.util_lo, config.util_hi);
        params.total_utilization = target_util * config.m;
        params.utilization_cap = static_cast<double>(config.m);
        const TaskSystem system = generate_task_system(rng, params);

        // Fixed draw order regardless of the admission outcome, so the
        // generated stream for trial i never depends on analysis internals.
        const TaskId target = static_cast<TaskId>(
            rng.uniform_int(0, static_cast<std::int64_t>(system.size()) - 1));
        FaultPlan plan = random_fault_plan(rng, system, target, config.fault);
        const std::uint64_t sim_seed = rng.next_u64();

        const FedconsResult admission = fedcons_schedule(system, config.m);
        if (!admission.success) {
          result.delta = perf_counters() - before;
          return result;
        }
        result.admitted = true;
        result.target = task_display_name(system, target);
        result.sim = config.sim;
        result.sim.seed = sim_seed;
        result.sim.faults = plan;
        result.sim.supervision = config.supervision;
        result.plan = std::move(plan);

        const SystemSimReport report =
            simulate_system(system, admission, result.sim);
        result.target_misses = report.per_task[target].deadline_misses;
        for (TaskId t = 0; t < system.size(); ++t) {
          if (t == target) continue;
          result.cross.merge(report.per_task[t]);
        }
        result.incident = result.cross.deadline_misses > 0;
        if (result.incident) result.system_text = serialize_task_system(system);
        result.delta = perf_counters() - before;
        return result;
      });

  IsolationReport report;
  report.trials = config.trials;
  report.m = config.m;
  report.supervision = config.supervision;
  for (const TrialResult& r : results) {
    report.counters += r.delta;
    report.admitted += r.admitted ? 1 : 0;
    report.target_misses += r.target_misses;
    report.cross_misses += r.cross.deadline_misses;
  }

  // Minimize every incident serially, in trial-index order.
  const PerfCounters before_shrink = perf_counters();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& r = results[i];
    if (!r.incident) continue;
    IsolationIncident incident;
    incident.trial = i;
    incident.target = r.target;
    incident.plan = r.plan;
    incident.sim = r.sim;
    incident.cross_observed = r.cross;
    incident.system_text = r.system_text;

    FEDCONS_SPAN_V("fault", "isolation-shrink", "trial", i);
    incident.artifact.fault_plan = r.plan;
    incident.artifact.supervision = config.supervision;
    incident.shrink_probes = pin_violation(
        make_isolation_entry(r.plan, config.supervision), r.system_text,
        config.m, r.sim, config.shrink_budget,
        "found by run_isolation_fuzz trial " + std::to_string(i) +
            " (master_seed " + std::to_string(config.master_seed) +
            ", target " + r.target + ")",
        incident.artifact);
    report.incidents.push_back(std::move(incident));
  }
  report.counters += perf_counters() - before_shrink;
  return report;
}

std::string isolation_report_json(const IsolationReport& report) {
  std::ostringstream os;
  os << "{\n  \"schema_version\": 1,\n  \"trials\": " << report.trials
     << ",\n  \"admitted\": " << report.admitted
     << ",\n  \"m\": " << report.m << ",\n  \"supervision\": \""
     << to_string(report.supervision) << "\",\n  \"target_misses\": "
     << report.target_misses
     << ",\n  \"cross_misses\": " << report.cross_misses
     << ",\n  \"counters\": {\"fault_isolation_trials\": "
     << report.counters.fault_isolation_trials
     << ", \"fault_injections\": " << report.counters.fault_injections
     << ", \"fault_enforcements\": " << report.counters.fault_enforcements
     << "},\n  \"incidents\": [\n";
  for (std::size_t i = 0; i < report.incidents.size(); ++i) {
    const IsolationIncident& inc = report.incidents[i];
    os << "    {\"trial\": " << inc.trial << ", \"target\": \""
       << json_escape(inc.target) << "\", \"plan\": \""
       << json_escape(format_fault_plan(inc.plan))
       << "\", \"minimized_m\": " << inc.artifact.m
       << ", \"shrink_probes\": " << inc.shrink_probes << "}"
       << (i + 1 < report.incidents.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace fedcons
