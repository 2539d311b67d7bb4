// Experiment E7 — MINPROCS efficiency (paper Lemma 1 / Figure 3).
//
// For random high-density tasks, compares:
//   * MINPROCS's processor count m_i against the ⌈δ_i⌉ lower bound (how many
//     extra processors list scheduling costs in practice vs the speedup-2
//     worst case), and against the Li-style closed-form count
//     ⌈(vol−len)/(D−len)⌉;
//   * the σ_i makespan against the max(len, ⌈vol/m_i⌉) lower bound.
#include <iostream>

#include "fedcons/federated/federated_implicit.h"
#include "fedcons/federated/minprocs.h"
#include "fedcons/gen/dag_gen.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/rng.h"
#include "fedcons/util/stats.h"
#include "fedcons/util/table.h"

using namespace fedcons;

int run(const Flags& flags) {
  const bool csv = flags.get_bool("csv", false);
  const int samples = flags.get_int("samples", 300, 1);

  std::cout << "== E7: MINPROCS processor counts vs lower bounds (random "
               "high-density tasks)\n";
  Table t({"tightness D/vol", "tasks", "mean ceil(delta)", "mean MINPROCS",
           "mean closed-form", "MINPROCS==lb", "mean makespan/LB",
           "max makespan/LB"});
  Rng rng(77);
  for (double tightness : {0.3, 0.5, 0.7, 0.9}) {
    OnlineStats lb_stats, mp_stats, cf_stats, ratio_stats;
    int exact = 0, measured = 0;
    LayeredDagParams params;
    params.min_layers = 3;
    params.max_layers = 7;
    params.min_width = 2;
    params.max_width = 6;
    params.max_wcet = 50;
    while (measured < samples) {
      Dag g = generate_layered_dag(rng, params);
      // Deadline a fixed fraction of vol (below vol → high density),
      // clamped to len so the task is feasible at all.
      Time deadline = std::max<Time>(
          g.len(), static_cast<Time>(tightness * static_cast<double>(g.vol())));
      if (deadline >= g.vol()) continue;  // would be low-density
      DagTask task(g, deadline, deadline + 10);
      auto mp = minprocs(task, 64);
      if (!mp) continue;
      ++measured;
      int lb = minprocs_lower_bound(task);
      int cf = closed_form_processor_count(task, deadline);
      lb_stats.add(lb);
      mp_stats.add(mp->processors);
      if (cf > 0) cf_stats.add(cf);
      if (mp->processors == lb) ++exact;
      double ratio = static_cast<double>(mp->sigma.makespan()) /
                     static_cast<double>(
                         makespan_lower_bound(task.graph(), mp->processors));
      ratio_stats.add(ratio);
    }
    t.add_row({fmt_double(tightness, 1), fmt_int(measured),
               fmt_double(lb_stats.mean(), 2), fmt_double(mp_stats.mean(), 2),
               fmt_double(cf_stats.mean(), 2), fmt_ratio(
                   static_cast<std::size_t>(exact),
                   static_cast<std::size_t>(measured)),
               fmt_double(ratio_stats.mean(), 3),
               fmt_double(ratio_stats.max(), 3)});
  }
  t.print(std::cout);
  if (csv) t.print_csv(std::cout);
  std::cout << "\nExpected shape: MINPROCS sits close to ceil(delta) (far "
               "from the 2x worst case), needs no more processors than the "
               "closed-form count, and sigma makespans stay well under "
               "Graham's 2-1/m factor over the lower bound.\n";
  return 0;
}
