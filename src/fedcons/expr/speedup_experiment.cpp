#include "fedcons/expr/speedup_experiment.h"

#include <algorithm>

#include "fedcons/analysis/feasibility.h"
#include "fedcons/engine/algorithms.h"
#include "fedcons/engine/batch_runner.h"
#include "fedcons/federated/speedup.h"
#include "fedcons/util/check.h"

namespace fedcons {

namespace {

struct Attempt {
  bool proxy = false;          ///< passed the necessary-feasibility proxy
  bool never_accepted = false; ///< rejected even at max_speed
  double speed = 0.0;          ///< valid when proxy && !never_accepted
};

}  // namespace

SpeedupExperimentResult run_speedup_experiment(
    const SpeedupExperimentConfig& config) {
  FEDCONS_EXPECTS(config.m >= 1);
  FEDCONS_EXPECTS(config.samples >= 1);
  FEDCONS_EXPECTS(config.normalized_util > 0.0);
  FEDCONS_EXPECTS(config.num_threads >= 0);

  const AcceptanceTest& accept = find_algorithm(config.algorithm).admits;

  TaskSetParams params = config.base;
  params.total_utilization =
      config.normalized_util * static_cast<double>(config.m);
  params.utilization_cap = static_cast<double>(config.m);

  BatchRunner runner(config.num_threads);
  SpeedupExperimentResult result;

  // Chunk size depends only on the config (never on the thread count), so
  // which attempts get measured is deterministic; overshoot past the final
  // accepted sample is at most one chunk.
  const int chunk = std::max(32, config.samples);
  for (int start = 0;
       start < config.max_attempts && result.measured < config.samples;
       start += chunk) {
    const int n = std::min(chunk, config.max_attempts - start);
    std::vector<Attempt> attempts(static_cast<std::size_t>(n));
    runner.parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
      // Seed by the ABSOLUTE attempt index so chunking is invisible.
      const std::uint64_t idx = static_cast<std::uint64_t>(start) + i;
      Rng rng(trial_seed(config.seed, idx));
      Attempt& a = attempts[i];
      TaskSystem sys = generate_task_system(rng, params);
      a.proxy = passes_necessary_conditions(sys, config.m);
      if (!a.proxy) return;
      auto speed = min_speed(sys, config.m, accept, config.max_speed,
                             config.resolution);
      if (!speed.has_value()) {
        a.never_accepted = true;
      } else {
        a.speed = *speed;
      }
    });
    for (const Attempt& a : attempts) {
      if (result.measured >= config.samples) break;
      if (!a.proxy) continue;
      ++result.measured;
      if (a.never_accepted) {
        ++result.never_accepted;
        continue;
      }
      if (a.speed <= 1.0) ++result.accepted_at_unit;
      result.speeds.push_back(a.speed);
    }
  }
  return result;
}

}  // namespace fedcons
