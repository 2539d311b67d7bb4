// Quickstart: the fedcons public API in ~60 lines.
//
//  1. Describe sporadic DAG tasks (here: the paper's Figure-1 example plus
//     a genuinely parallel high-density task).
//  2. Run Algorithm FEDCONS to map them onto a multiprocessor platform.
//  3. Replay the allocation in the discrete-event simulator and confirm
//     zero deadline misses.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <iostream>

#include "fedcons/core/builders.h"
#include "fedcons/sim/system_sim.h"

using namespace fedcons;

int main() {
  // --- 1. Describe the workload. -----------------------------------------
  TaskSystem system;

  // The paper's Figure-1 task: 5 jobs, 5 precedence edges, D=16, T=20.
  system.add(make_paper_example_task());

  // A parallel sensor-fusion stage: fan-out of eight 1-tick jobs that must
  // all finish within 2 ticks — density 4, impossible on any single
  // processor, ideal for a dedicated federated cluster.
  DagBuilder fusion;
  for (int i = 0; i < 8; ++i) fusion.add_vertex(1);
  system.add(DagTask(fusion.build(), /*deadline=*/2, /*period=*/10,
                     "sensor-fusion"));

  // A light periodic logger, built with the fluent builder.
  Dag logger = DagBuilder{}.vertices({2, 1}).edge(0, 1).build();
  system.add(DagTask(std::move(logger), /*deadline=*/12, /*period=*/40,
                     "logger"));

  std::cout << system.summary() << "\n";

  // --- 2. Schedule with FEDCONS. ------------------------------------------
  const int m = 6;
  FedconsResult allocation = fedcons_schedule(system, m);
  std::cout << allocation.describe(system);
  if (!allocation.success) return 1;

  // --- 3. Validate at run time. -------------------------------------------
  SimConfig sim;
  sim.horizon = 100000;
  sim.release = ReleaseModel::kSporadic;  // legal sporadic arrivals
  sim.exec = ExecModel::kUniform;         // jobs often finish early
  sim.exec_lo = 0.5;
  SystemSimReport report = simulate_system(system, allocation, sim);

  std::cout << "\nSimulated " << report.total.jobs_released
            << " dag-jobs over " << sim.horizon << " ticks: "
            << report.total.deadline_misses << " deadline misses, max "
            << "response time " << report.total.max_response_time
            << " ticks.\n";
  return report.total.deadline_misses == 0 ? 0 : 1;
}
