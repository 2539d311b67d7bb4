// Acceptance-ratio sweeps — the paper's "schedulability experiments upon
// randomly-generated task systems" (Section IV, concluding note), made
// concrete and reproducible.
//
// For each normalized-utilization grid point U_sum/m, `trials` task systems
// are drawn and every listed algorithm (engine/algorithms.h) is run on each;
// the sweep reports per-algorithm acceptance ratios plus the fraction passing
// the necessary-feasibility conditions (the clairvoyant-optimal proxy that
// upper bounds every algorithm — see analysis/feasibility.h).
//
// Execution goes through the engine's deterministic batch runner
// (engine/batch_runner.h): trials run in parallel across
// SweepConfig::num_threads threads, with per-trial seeds derived purely from
// (seed, point index, trial index) — the reported counts are bit-identical
// for every thread count.
#pragma once

#include <string>
#include <vector>

#include "fedcons/core/task_system.h"
#include "fedcons/engine/algorithms.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/obs/metrics.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

/// The standard comparison battery used across E3/E5, rows of the engine's
/// algorithm table:
///   FEDCONS        — the paper's algorithm (full PARTITION variant)
///   FEDCONS-lit    — paper-literal Fig. 4 PARTITION (demand check only)
///   FED-LI-adapt   — Li et al. closed-form federated, constrained adaptation
///   P-SEQ          — fully-partitioned EDF, no federation (sequentialized)
///   P-DM           — fully-partitioned deadline-monotonic FP with exact RTA
///   GEDF-density   — analytical global-EDF density test
[[nodiscard]] std::vector<Algorithm> standard_algorithms();

struct SweepConfig {
  int m = 8;                      ///< platform size
  std::vector<double> normalized_utils =  ///< U_sum/m grid
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  int trials = 200;               ///< task systems per grid point
  std::uint64_t seed = 42;
  int num_threads = 0;            ///< batch-runner width; 0 = all cores
  TaskSetParams base;             ///< total_utilization is overridden per point
  /// Aggregate per-trial observability metrics (obs/metrics.h) into each
  /// AcceptancePoint: wall-clock trial latency plus whatever the algorithms
  /// record (μ per MINPROCS success, bins touched per placement). Off by
  /// default — latency is a physical measurement, so reports stay
  /// byte-stable unless metrics are explicitly requested. Value histograms
  /// are merged in trial-index order and remain deterministic; the latency
  /// histogram is not.
  bool collect_metrics = false;
};

/// One grid point's outcome.
struct AcceptancePoint {
  double normalized_util = 0.0;
  std::size_t trials = 0;
  std::size_t feasible_upper_bound = 0;      ///< pass necessary conditions
  std::vector<std::size_t> accepted;         ///< parallel to the algorithm list
  PerfCounters counters;                     ///< analysis work over all trials
  obs::MetricsRegistry metrics;  ///< filled iff SweepConfig::collect_metrics
};

/// Run the sweep. accepted[i][a] corresponds to algorithms[a].
[[nodiscard]] std::vector<AcceptancePoint> run_acceptance_sweep(
    const SweepConfig& config, const std::vector<Algorithm>& algorithms);

/// Weighted schedulability (Bastoni–Brandenburg–Anderson): collapses a sweep
/// into one scalar per algorithm by weighting each grid point's acceptance
/// ratio with its normalized utilization,
///     W_a = Σ_p (U_p/m)·ratio_a(p) / Σ_p (U_p/m),
/// so hard (high-load) points count more than easy ones. The standard way to
/// compare algorithms across a secondary parameter dimension (used by E5's
/// summary). Returns one value per algorithm, parallel to `algorithms`.
[[nodiscard]] std::vector<double> weighted_schedulability(
    const std::vector<AcceptancePoint>& points, std::size_t num_algorithms);

}  // namespace fedcons
