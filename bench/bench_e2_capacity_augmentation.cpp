// Experiment E2 — the paper's Example 2: capacity augmentation bounds are
// meaningless for constrained deadlines.
//
// The family: n single-vertex tasks with (C = 1, D = 1, T = n). It satisfies
// U_sum ≈ 1 and len_i ≤ D_i — the premises of a capacity augmentation bound
// — yet is "only schedulable upon a processor of speed n". We measure, at a
// tick granularity K (so fractional speeds are expressible as ⌈K/s⌉):
//   * the minimum uniprocessor-EDF speed (expected ≈ n — diverges), and
//   * the FEDCONS view: every task is high-density (δ = 1), so FEDCONS needs
//     exactly n processors at unit speed — the federated face of the same
//     divergence.
#include <iostream>
#include <vector>

#include "fedcons/analysis/edf_uniproc.h"
#include "fedcons/core/dag_task.h"
#include "fedcons/core/task_system.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/speedup.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/table.h"

using namespace fedcons;

namespace {

TaskSystem example2_at_granularity(int n, Time k) {
  TaskSystem sys;
  for (int i = 0; i < n; ++i) {
    sys.add(DagTask(DagBuilder{}.vertex(k).build(), k, checked_mul(n, k)));
  }
  return sys;
}

}  // namespace

int run(const Flags& flags) {
  const bool csv = flags.get_bool("csv", false);
  const Time k = flags.get_int<Time>("granularity", 64, 1);
  const int n_max = flags.get_int("n-max", 8, 1);

  AcceptanceTest uniproc_edf = [](const TaskSystem& s, int m) {
    if (m != 1) return false;
    std::vector<SporadicTask> seq;
    for (const auto& t : s) seq.push_back(t.to_sequential());
    return edf_schedulable(seq);
  };

  std::cout << "== E2: paper Example 2 — required speed diverges with n "
               "(capacity augmentation bound is meaningless)\n";
  Table t({"n", "U_sum", "min uniproc speed", "speed/n",
           "FEDCONS procs needed", "min m for FEDCONS@speed1"});
  for (int n = 1; n <= n_max; ++n) {
    TaskSystem sys = example2_at_granularity(n, k);
    auto speed = min_speed(sys, 1, uniproc_edf, /*max_speed=*/
                           static_cast<double>(n_max) + 2.0,
                           /*resolution=*/1.0 / 64.0);
    // FEDCONS at unit speed: smallest m that succeeds.
    int min_m = -1;
    for (int m = 1; m <= n + 1; ++m) {
      if (fedcons_schedulable(sys, m)) {
        min_m = m;
        break;
      }
    }
    t.add_row({fmt_int(n), sys.total_utilization().to_string(),
               speed ? fmt_double(*speed) : "inf",
               speed ? fmt_double(*speed / static_cast<double>(n), 2) : "n/a",
               fmt_int(min_m), fmt_int(min_m)});
  }
  t.print(std::cout);
  if (csv) t.print_csv(std::cout);

  std::cout << "\nExpected shape: 'min uniproc speed' grows ~linearly in n "
               "(speed/n ≈ 1), and FEDCONS needs exactly n unit-speed "
               "processors — no finite capacity augmentation bound exists.\n";
  return 0;
}
