// Experiment E10 — how much acceptance does the paper's 1-point DBF*
// approximation give up, and what does buying it back cost?
//
// PARTITION's admission predicate is swept from the paper's DBF* (1 point)
// through k-point refinements (exact DBF steps before the linear tail) to
// exact-EDF admission, inside full FEDCONS. Reported per U_sum/m grid point:
// acceptance ratio and mean analysis time per task system.
//
// Expected shape: acceptance grows monotonically (in aggregate) from k = 1
// toward exact admission, with diminishing returns after a few points, while
// analysis cost grows — the engineering trade-off behind the paper's choice
// of the O(1)-evaluable DBF*.
#include <chrono>
#include <iostream>

#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/rng.h"
#include "fedcons/util/stats.h"
#include "fedcons/util/table.h"

using namespace fedcons;

int run(const Flags& flags) {
  const bool csv = flags.get_bool("csv", false);
  const int trials = flags.get_int("trials", 100, 1);
  const int m = 8;

  struct Config {
    std::string name;
    FedconsOptions options;
  };
  std::vector<Config> configs;
  for (int k : {1, 2, 4, 8}) {
    FedconsOptions opt;
    opt.partition.dbf_points = k;
    configs.push_back({"DBF*-k" + std::to_string(k), opt});
  }
  {
    FedconsOptions opt;
    opt.partition.variant = PartitionVariant::kExactEdf;
    configs.push_back({"exact-EDF", opt});
  }

  std::cout << "== E10: PARTITION admission refinement — acceptance and "
               "cost (m = " << m << ", " << trials << " systems/point)\n";
  std::vector<std::string> header{"U/m"};
  for (const auto& c : configs) {
    header.push_back(c.name);
    header.push_back(c.name + " us/sys");
  }
  Table t(std::move(header));

  Rng master(8675309);
  for (double nu : {0.4, 0.5, 0.6, 0.7, 0.8}) {
    TaskSetParams params;
    params.num_tasks = 2 * m;
    params.total_utilization = nu * m;
    params.utilization_cap = m;
    params.period_min = 100;
    params.period_max = 50000;
    params.topology = DagTopology::kMixed;

    // Same systems for every config.
    std::vector<TaskSystem> systems;
    systems.reserve(static_cast<std::size_t>(trials));
    for (int i = 0; i < trials; ++i) {
      Rng rng = master.split();
      systems.push_back(generate_task_system(rng, params));
    }

    std::vector<std::string> row{fmt_double(nu, 1)};
    for (const auto& config : configs) {
      std::size_t accepted = 0;
      auto start = std::chrono::steady_clock::now();
      for (const auto& sys : systems) {
        if (fedcons_schedulable(sys, m, config.options)) ++accepted;
      }
      auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
      row.push_back(fmt_ratio(accepted, systems.size()));
      row.push_back(fmt_double(
          static_cast<double>(elapsed) / static_cast<double>(trials), 1));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  if (csv) t.print_csv(std::cout);
  std::cout << "\nExpected shape: acceptance non-decreasing left to right "
               "per row (aggregate), cost increasing; DBF* (k=1) already "
               "captures most of the acceptance — the paper's trade-off.\n";
  return 0;
}
