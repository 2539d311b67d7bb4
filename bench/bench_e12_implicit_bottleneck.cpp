// Experiment E12 — the paper's §III "note": the bottleneck phase FLIPS
// between the implicit- and constrained-deadline settings.
//
//   "Hence the bottleneck for implicit-deadline systems is the
//    high-utilization tasks … For constrained-deadline sporadic DAG task
//    systems, by contrast, the bottleneck step … is the partitioning step."
//
// E8d showed the constrained side (partition-phase rejections dominate).
// Here we generate IMPLICIT-deadline systems (D = T) and attribute every
// rejection to its phase, for both the Li-et-al. closed-form baseline and
// FEDCONS run on the same systems (implicit ⊂ constrained, so FEDCONS
// applies unchanged). Expected shape: rejections now concentrate in the
// DEDICATED (high-utilization) phase — the mirror image of E8d.
#include <iostream>

#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/federated_implicit.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/rng.h"
#include "fedcons/util/table.h"

using namespace fedcons;

int run(const Flags& flags) {
  const bool csv = flags.get_bool("csv", false);
  const int trials = flags.get_int("trials", 120, 1);
  const int m = 8;

  std::cout << "== E12: rejection phase on IMPLICIT-deadline systems "
               "(m = " << m << ", " << trials << " systems/point) — compare "
               "with E8d's constrained-deadline breakdown\n";
  Table t({"U/m", "LI accepted", "LI rej: dedicated", "LI rej: shared",
           "FEDCONS accepted", "FC rej: high-phase", "FC rej: partition"});
  Rng master(271);
  for (double nu : {0.3, 0.5, 0.7, 0.9}) {
    TaskSetParams params;
    params.num_tasks = 2 * m;
    params.total_utilization = nu * m;
    params.utilization_cap = m;
    params.period_min = 100;
    params.period_max = 50000;
    params.deadline_ratio_min = 1.0;  // implicit: D = T
    params.deadline_ratio_max = 1.0;
    params.topology = DagTopology::kMixed;

    int li_acc = 0, li_ded = 0, li_shared = 0;
    int fc_acc = 0, fc_high = 0, fc_part = 0;
    for (int i = 0; i < trials; ++i) {
      Rng rng = master.split();
      TaskSystem sys = generate_task_system(rng, params);
      if (sys.deadline_class() != DeadlineClass::kImplicit) continue;

      auto li = li_federated_implicit(sys, m);
      if (li.success) ++li_acc;
      else if (li.failure == BaselineFailure::kDedicatedPhase) ++li_ded;
      else ++li_shared;

      auto fc = fedcons_schedule(sys, m);
      if (fc.success) ++fc_acc;
      else if (fc.failure == FedconsFailure::kHighDensityPhase) ++fc_high;
      else ++fc_part;
    }
    t.add_row({fmt_double(nu, 1), fmt_int(li_acc), fmt_int(li_ded),
               fmt_int(li_shared), fmt_int(fc_acc), fmt_int(fc_high),
               fmt_int(fc_part)});
  }
  t.print(std::cout);
  if (csv) t.print_csv(std::cout);
  std::cout << "\nExpected shape: for the Li-style baseline — whose "
               "closed-form first phase carries the capacity-bound-2 factor "
               "the paper's §III note attributes the implicit bottleneck to "
               "— dedicated-phase rejections appear first and dominate at "
               "moderate load (the mirror image of E8d), with the shared "
               "pool only saturating near U/m → 1. FEDCONS's MINPROCS first "
               "phase is near-optimal (E7/E11), so even on implicit systems "
               "its own residual rejections sit in the partition phase — "
               "quantifying exactly how much the LS-scan first phase "
               "improves on the closed-form allocation.\n";
  return 0;
}
