#include "fedcons/expr/acceptance.h"

#include <chrono>
#include <cstdint>

#include "fedcons/analysis/feasibility.h"
#include "fedcons/engine/batch_runner.h"
#include "fedcons/util/check.h"

namespace fedcons {

std::vector<Algorithm> standard_algorithms() {
  std::vector<Algorithm> algos;
  for (const char* name : {"FEDCONS", "FEDCONS-lit", "FED-LI-adapt", "P-SEQ",
                           "P-DM", "GEDF-density"}) {
    algos.push_back(find_algorithm(name));
  }
  return algos;
}

namespace {

/// Everything one trial produces, aggregated in index order afterwards.
struct TrialOutcome {
  bool feasible = false;
  std::vector<std::uint8_t> verdicts;
  PerfCounters counters;
  /// Raw metric samples (collect_metrics only): snapshotted from the worker's
  /// thread-local collector so the merge can run in trial-index order.
  std::uint64_t latency_us = 0;
  std::vector<std::uint32_t> minprocs_mu;
  std::vector<std::uint32_t> partition_bins_touched;
};

}  // namespace

std::vector<AcceptancePoint> run_acceptance_sweep(
    const SweepConfig& config, const std::vector<Algorithm>& algorithms) {
  FEDCONS_EXPECTS(config.m >= 1);
  FEDCONS_EXPECTS(config.trials >= 1);
  FEDCONS_EXPECTS(config.num_threads >= 0);
  FEDCONS_EXPECTS(!algorithms.empty());

  BatchRunner runner(config.num_threads);
  std::vector<AcceptancePoint> points;
  points.reserve(config.normalized_utils.size());
  for (std::size_t pi = 0; pi < config.normalized_utils.size(); ++pi) {
    const double nu = config.normalized_utils[pi];
    FEDCONS_EXPECTS(nu > 0.0);
    TaskSetParams params = config.base;
    params.total_utilization = nu * static_cast<double>(config.m);
    params.utilization_cap = static_cast<double>(config.m);

    const std::function<TrialOutcome(std::size_t, Rng&)> trial =
        [&](std::size_t, Rng& rng) {
          TrialOutcome out;
          const PerfCounters before = perf_counters();
          if (config.collect_metrics) obs::metrics_collector().clear();
          const auto t0 = std::chrono::steady_clock::now();
          TaskSystem sys = generate_task_system(rng, params);
          out.feasible = passes_necessary_conditions(sys, config.m);
          out.verdicts.resize(algorithms.size());
          for (std::size_t a = 0; a < algorithms.size(); ++a) {
            out.verdicts[a] = algorithms[a].admits(sys, config.m) ? 1 : 0;
          }
          out.counters = perf_counters() - before;
          if (config.collect_metrics) {
            out.latency_us = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            obs::MetricsCollector& col = obs::metrics_collector();
            out.minprocs_mu = col.minprocs_mu;
            out.partition_bins_touched = col.partition_bins_touched;
          }
          return out;
        };
    // Per-point master seed, so points are independent of one another and of
    // the grid's layout.
    const std::uint64_t point_seed = trial_seed(config.seed, pi);
    auto outcomes = runner.run_trials<TrialOutcome>(
        static_cast<std::size_t>(config.trials), point_seed, trial);

    AcceptancePoint point;
    point.normalized_util = nu;
    point.trials = outcomes.size();
    point.accepted.assign(algorithms.size(), 0);
    for (const TrialOutcome& out : outcomes) {
      if (out.feasible) ++point.feasible_upper_bound;
      for (std::size_t a = 0; a < algorithms.size(); ++a) {
        point.accepted[a] += out.verdicts[a];
      }
      point.counters += out.counters;
      if (config.collect_metrics) {
        point.metrics.trial_latency_us.add(out.latency_us);
        for (std::uint32_t mu : out.minprocs_mu) {
          point.metrics.minprocs_mu.add(mu);
        }
        for (std::uint32_t bins : out.partition_bins_touched) {
          point.metrics.partition_bins_touched.add(bins);
        }
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<double> weighted_schedulability(
    const std::vector<AcceptancePoint>& points, std::size_t num_algorithms) {
  FEDCONS_EXPECTS(!points.empty());
  std::vector<double> weighted(num_algorithms, 0.0);
  double weight_sum = 0.0;
  for (const auto& p : points) {
    FEDCONS_EXPECTS(p.accepted.size() == num_algorithms);
    FEDCONS_EXPECTS(p.trials > 0);
    weight_sum += p.normalized_util;
    for (std::size_t a = 0; a < num_algorithms; ++a) {
      weighted[a] += p.normalized_util *
                     (static_cast<double>(p.accepted[a]) /
                      static_cast<double>(p.trials));
    }
  }
  FEDCONS_EXPECTS(weight_sum > 0.0);
  for (double& w : weighted) w /= weight_sum;
  return weighted;
}

}  // namespace fedcons
