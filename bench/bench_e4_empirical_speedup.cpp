// Experiment E4 — empirical speedup vs the Theorem-1 bound (3 − 1/m).
//
// Draws systems passing the necessary-feasibility proxy and measures the
// minimum processor speed at which FEDCONS accepts each. The paper's claim:
// the worst-case bound "is conservative" — empirical minimum speeds cluster
// far below 3 − 1/m.
//
// The measured algorithm is selected by engine-table name (--algo=...),
// and candidate attempts are evaluated in parallel (--threads=N) with
// results independent of the thread count.
#include <climits>
#include <iostream>

#include "fedcons/expr/reports.h"
#include "fedcons/expr/speedup_experiment.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/stats.h"

using namespace fedcons;

int run(const Flags& flags) {
  const bool csv = flags.get_bool("csv", false);
  const bool json = flags.get_bool("json", false);
  // Bounded so that max_attempts = 30 * samples below fits int.
  const int samples = flags.get_int("samples", 60, 1, INT_MAX / 30);
  const int threads = flags.get_int("threads", 0, 0);
  const std::string algo = flags.get_string("algo", "FEDCONS");

  bool first_json = true;
  if (json) std::cout << "[\n";
  for (int m : {4, 8}) {
    for (double nu : {0.4, 0.6, 0.8}) {
      SpeedupExperimentConfig cfg;
      cfg.m = m;
      cfg.normalized_util = nu;
      cfg.samples = samples;
      cfg.max_attempts = samples * 30;
      cfg.seed = 7 + static_cast<std::uint64_t>(m * 100 + int(nu * 10));
      cfg.algorithm = algo;
      cfg.num_threads = threads;
      cfg.base.num_tasks = 2 * m;
      cfg.base.period_min = 100;
      cfg.base.period_max = 20000;
      auto result = run_speedup_experiment(cfg);
      if (json) {
        if (!first_json) std::cout << ",\n";
        first_json = false;
        std::cout << speedup_report_json("e4_empirical_speedup", cfg, result);
        continue;
      }
      print_report(std::cout,
                   "E4: empirical " + algo + " speedup distribution (m = " +
                       std::to_string(m) + ", U/m = " + fmt_double(nu, 1) +
                       ")",
                   speedup_table(result, m), csv);
    }
  }
  if (json) {
    std::cout << "]\n";
    return 0;
  }
  std::cout << "Expected shape: p95 and even max empirical speeds sit well "
               "below the theoretical 3 − 1/m row.\n";
  return 0;
}
