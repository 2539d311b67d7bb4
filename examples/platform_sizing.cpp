// Design-space exploration: sizing a multiprocessor platform for a random
// mixed workload under different scheduling strategies.
//
// For a batch of randomly generated constrained-deadline DAG workloads,
// finds the smallest processor count each strategy needs, quantifying the
// paper's motivation for federated scheduling: pure partitioning cannot
// host high-density tasks AT ALL, while FEDCONS sizes within a small factor
// of the necessary-condition lower bound.
//
// Flags: --workloads=N (default 25) --tasks=N (default 10) --util=U (4.0);
// a malformed or out-of-range value exits 2.
#include <exception>
#include <iostream>

#include "fedcons/analysis/feasibility.h"
#include "fedcons/baselines/partitioned_seq.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/federated_implicit.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/stats.h"
#include "fedcons/util/table.h"

using namespace fedcons;

namespace {

/// Smallest m in [1, cap] accepted by `test`, or -1.
template <typename Test>
int min_processors(const TaskSystem& sys, int cap, Test&& test) {
  for (int m = 1; m <= cap; ++m) {
    if (test(sys, m)) return m;
  }
  return -1;
}

int run(const Flags& flags) {
  const int workloads = flags.get_int("workloads", 25, 1);
  const int tasks = flags.get_int("tasks", 10, 1);
  const double util = flags.get_double("util", 4.0);
  constexpr int kCap = 64;

  TaskSetParams params;
  params.num_tasks = tasks;
  params.total_utilization = util;
  params.utilization_cap = util;
  params.period_min = 100;
  params.period_max = 20000;
  params.topology = DagTopology::kMixed;

  Rng rng(20250707);
  Table t({"workload", "high-density tasks", "NEC lower bound", "FEDCONS",
           "FED-LI-adapt", "P-SEQ"});
  OnlineStats overhead;
  int pseq_impossible = 0;
  for (int w = 0; w < workloads; ++w) {
    Rng sys_rng = rng.split();
    TaskSystem sys = generate_task_system(sys_rng, params);
    int nec = min_processors(sys, kCap, [](const TaskSystem& s, int m) {
      return passes_necessary_conditions(s, m);
    });
    int fed = min_processors(sys, kCap, [](const TaskSystem& s, int m) {
      return fedcons_schedulable(s, m);
    });
    int li = min_processors(sys, kCap, [](const TaskSystem& s, int m) {
      return li_federated_constrained_adaptation(s, m).success;
    });
    int pseq = min_processors(sys, kCap, [](const TaskSystem& s, int m) {
      return partitioned_sequential_schedulable(s, m);
    });
    if (pseq < 0) ++pseq_impossible;
    if (fed > 0 && nec > 0) {
      overhead.add(static_cast<double>(fed) / static_cast<double>(nec));
    }
    t.add_row({fmt_int(w),
               fmt_int(static_cast<long long>(sys.high_density_tasks().size())),
               fmt_int(nec), fmt_int(fed), fmt_int(li),
               pseq < 0 ? "impossible" : fmt_int(pseq)});
  }
  t.print(std::cout);
  std::cout << "\nFEDCONS processor count vs necessary lower bound: mean "
            << fmt_double(overhead.mean(), 3) << "x, max "
            << fmt_double(overhead.max(), 3) << "x (worst-case theory: "
            << "3 - 1/m).\nPure partitioning could not host "
            << pseq_impossible << "/" << workloads
            << " workloads at ANY platform size (high-density tasks need "
               "federation).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
