#include "fedcons/conform/harness.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fedcons/core/io.h"
#include "fedcons/engine/batch_runner.h"
#include "fedcons/obs/span_tracer.h"
#include "fedcons/util/check.h"

namespace fedcons {

namespace {

/// Everything one trial produces; written into the trial's result slot so
/// aggregation is independent of execution order.
struct TrialResult {
  struct PerEntry {
    bool supported = false;
    bool admitted = false;
    bool violation = false;
    SimStats sim;
  };
  std::vector<PerEntry> per_entry;
  SimConfig sim;            ///< the trial's exact simulation config
  std::string system_text;  ///< serialized only when a violation occurred
  PerfCounters delta;
};

}  // namespace

ConformConfig default_conform_config() {
  ConformConfig config;
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

ConformReport run_conformance(const ConformConfig& config,
                              std::span<const ConformanceEntry> entries) {
  FEDCONS_EXPECTS(config.m >= 1);
  FEDCONS_EXPECTS(!entries.empty());
  FEDCONS_EXPECTS(config.util_lo <= config.util_hi);

  BatchRunner runner(config.num_threads);
  const auto results = runner.run_trials<TrialResult>(
      config.trials, config.master_seed, [&](std::size_t, Rng& rng) {
        TrialResult result;
        const PerfCounters before = perf_counters();

        TaskSetParams params = config.gen;
        if (rng.uniform01() < config.implicit_fraction) {
          params.deadline_ratio_min = 1.0;
          params.deadline_ratio_max = 1.0;
        }
        const double target =
            config.util_lo == config.util_hi
                ? config.util_lo
                : rng.uniform_real(config.util_lo, config.util_hi);
        params.total_utilization = target * config.m;
        params.utilization_cap = static_cast<double>(config.m);
        const TaskSystem system = generate_task_system(rng, params);

        result.sim = config.sim;
        result.sim.seed = rng.next_u64();

        result.per_entry.resize(entries.size());
        bool violated = false;
        for (std::size_t e = 0; e < entries.size(); ++e) {
          ++perf_counters().conform_trials;
          FEDCONS_SPAN_V("conform", "oracle", "entry", e);
          const ConformanceOutcome outcome =
              entries[e].run(system, config.m, result.sim);
          auto& slot = result.per_entry[e];
          slot.supported = outcome.supported;
          slot.admitted = outcome.admitted;
          slot.violation = outcome.violation();
          slot.sim = outcome.sim;
          if (slot.violation) {
            ++perf_counters().conform_violations;
            violated = true;
          }
        }
        if (violated) result.system_text = serialize_task_system(system);
        result.delta = perf_counters() - before;
        return result;
      });

  ConformReport report;
  report.trials = config.trials;
  report.m = config.m;
  report.entries.resize(entries.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    report.entries[e].name = entries[e].name;
  }
  for (const TrialResult& r : results) {
    report.counters += r.delta;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const auto& slot = r.per_entry[e];
      auto& agg = report.entries[e];
      agg.supported += slot.supported ? 1 : 0;
      agg.admitted += slot.admitted ? 1 : 0;
      agg.violations += slot.violation ? 1 : 0;
      if (slot.admitted) agg.jobs_released += slot.sim.jobs_released;
    }
  }

  // Minimize every violation serially, in trial-index then entry order.
  const PerfCounters before_shrink = perf_counters();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& r = results[i];
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if (!r.per_entry[e].violation) continue;
      ViolationRecord record;
      record.trial = i;
      record.algorithm = entries[e].name;
      record.sim = r.sim;
      record.observed = r.per_entry[e].sim;
      record.system_text = r.system_text;

      FEDCONS_SPAN_V("conform", "shrink", "trial", i);
      record.artifact.algorithm = entries[e].name;
      record.shrink_probes = pin_violation(
          entries[e], r.system_text, config.m, r.sim, config.shrink_budget,
          "found by run_conformance trial " + std::to_string(i) +
              " (master_seed " + std::to_string(config.master_seed) + ")",
          record.artifact);
      report.violations.push_back(std::move(record));
    }
  }
  report.counters += perf_counters() - before_shrink;
  return report;
}

std::string conform_report_json(const ConformReport& report) {
  std::ostringstream os;
  os << "{\n  \"schema_version\": 1,\n  \"trials\": " << report.trials
     << ",\n  \"m\": " << report.m << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const auto& e = report.entries[i];
    os << "    {\"name\": \"" << e.name
       << "\", \"supported\": " << e.supported
       << ", \"admitted\": " << e.admitted
       << ", \"violations\": " << e.violations
       << ", \"jobs_released\": " << e.jobs_released << "}"
       << (i + 1 < report.entries.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"counters\": {\"conform_trials\": "
     << report.counters.conform_trials
     << ", \"conform_violations\": " << report.counters.conform_violations
     << ", \"conform_shrink_steps\": " << report.counters.conform_shrink_steps
     << "},\n"
     << "  \"violations\": " << report.violations.size() << "\n}\n";
  return os.str();
}

}  // namespace fedcons
