// Experiment E1 — the paper's Figure 1 / Example 1, reproduced.
//
// Prints the derived metrics of the example sporadic DAG task (vol, len,
// density, utilization, classification) exactly as Example 1 states them,
// plus the LS/MINPROCS treatment of the task and its template schedule.
//
// Paper values: |V| = 5, |E| = 5, len₁ = 6, vol₁ = 9, δ₁ = 9/16, u₁ = 9/20,
// low-density.
#include <iostream>

#include "fedcons/core/builders.h"
#include "fedcons/federated/minprocs.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/table.h"

using namespace fedcons;

int run(const Flags& flags) {
  const bool csv = flags.get_bool("csv", false);

  DagTask task = make_paper_example_task();

  std::cout << "== E1: paper Figure 1 / Example 1 — metrics of the example "
               "sporadic DAG task\n";
  Table metrics({"metric", "paper", "measured"});
  metrics.add_row({"|V|", "5", fmt_int(static_cast<long long>(
                                 task.graph().num_vertices()))});
  metrics.add_row({"|E|", "5", fmt_int(static_cast<long long>(
                                 task.graph().num_edges()))});
  metrics.add_row({"len", "6", fmt_int(task.len())});
  metrics.add_row({"vol", "9", fmt_int(task.vol())});
  metrics.add_row({"D", "16", fmt_int(task.deadline())});
  metrics.add_row({"T", "20", fmt_int(task.period())});
  metrics.add_row({"density δ", "9/16", task.density().to_string()});
  metrics.add_row({"utilization u", "9/20", task.utilization().to_string()});
  metrics.add_row({"class", "low-density",
                   task.is_low_density() ? "low-density" : "high-density"});
  metrics.print(std::cout);
  if (csv) metrics.print_csv(std::cout);

  std::cout << "\n== E1b: MINPROCS / List Scheduling on the example task\n";
  Table ls({"processors", "LS makespan", "lower bound", "graham bound",
            "meets D=16"});
  for (int m = 1; m <= 3; ++m) {
    TemplateSchedule s = list_schedule(task.graph(), m);
    ls.add_row({fmt_int(m), fmt_int(s.makespan()),
                fmt_int(makespan_lower_bound(task.graph(), m)),
                fmt_int(graham_bound(task.graph(), m)),
                s.makespan() <= task.deadline() ? "yes" : "no"});
  }
  ls.print(std::cout);
  if (csv) ls.print_csv(std::cout);

  auto mp = minprocs(task, 8);
  std::cout << "\nMINPROCS(tau_1, 8) = "
            << (mp ? std::to_string(mp->processors) : std::string("inf"))
            << " (lower bound ceil(delta) = " << minprocs_lower_bound(task)
            << ")\n";

  std::cout << "\nDOT rendering of the reconstructed Figure-1 DAG:\n"
            << task.graph().to_dot("figure1") << "\n";
  return 0;
}
