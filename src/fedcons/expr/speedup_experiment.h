// Empirical-speedup measurement harness (experiment E4).
//
// Draws task systems that pass the necessary-feasibility conditions on m
// unit-speed processors (the clairvoyant-optimal proxy: they *might* be
// feasible for OPT) and measures the minimum processor speed at which the
// configured algorithm accepts each. The distribution of those speeds,
// contrasted with the worst-case 3 − 1/m of Theorem 1, quantifies how
// conservative the bound is in practice — the paper's concluding
// observation.
//
// Candidate generation attempts are evaluated in fixed-size chunks through
// the engine's batch runner; each attempt is seeded purely by its index, and
// the first `samples` proxy-passing attempts in index order are kept — so
// the measured set is identical for every thread count.
#pragma once

#include <string>
#include <vector>

#include "fedcons/expr/acceptance.h"

namespace fedcons {

struct SpeedupExperimentConfig {
  int m = 8;
  double normalized_util = 0.6;  ///< U_sum/m of the drawn systems
  int samples = 100;             ///< systems passing the proxy to measure
  int max_attempts = 2000;       ///< generation attempts to find them
  double max_speed = 8.0;
  double resolution = 1.0 / 64.0;
  std::uint64_t seed = 7;
  std::string algorithm = "FEDCONS";  ///< engine table name to measure
  int num_threads = 0;                ///< batch-runner width; 0 = all cores
  TaskSetParams base;
};

struct SpeedupExperimentResult {
  std::vector<double> speeds;    ///< one per measured system
  int accepted_at_unit = 0;      ///< systems already accepted at speed 1
  int never_accepted = 0;        ///< rejected even at max_speed
  int measured = 0;              ///< == speeds.size() + never_accepted
};

[[nodiscard]] SpeedupExperimentResult run_speedup_experiment(
    const SpeedupExperimentConfig& config);

}  // namespace fedcons
