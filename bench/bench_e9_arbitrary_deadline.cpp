// Experiment E9 — the paper's future-work direction (§V): federated
// scheduling of ARBITRARY-deadline sporadic DAG systems.
//
// Compares the two sound strategies of federated/arbitrary.h on random
// systems whose deadlines are stretched past their periods:
//   * clamp-to-period (analyze with D' = min(D,T); plain FEDCONS), and
//   * pipelined clusters (k = ⌈makespan/T⌉ round-robin template instances).
// The expected shape: pipelining recovers most of the acceptance that
// clamping throws away, at the cost of extra dedicated processors; the gap
// widens with the deadline-stretch factor (more post-period slack to
// exploit).
#include <iostream>

#include "fedcons/analysis/feasibility.h"
#include "fedcons/federated/arbitrary.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/rng.h"
#include "fedcons/util/stats.h"
#include "fedcons/util/table.h"

using namespace fedcons;

namespace {

TaskSystem stretch_deadlines(const TaskSystem& base, Rng& rng,
                             double stretch_prob, int max_factor) {
  TaskSystem out;
  for (const auto& t : base) {
    Time d = t.deadline();
    if (rng.bernoulli(stretch_prob)) {
      d = checked_mul(d, rng.uniform_int(2, max_factor));
    }
    Dag g = t.graph();
    out.add(DagTask(std::move(g), d, t.period(), t.name()));
  }
  return out;
}

}  // namespace

int run(const Flags& flags) {
  const bool csv = flags.get_bool("csv", false);
  const int trials = flags.get_int("trials", 120, 1);
  const int m = 8;

  for (auto [stretch_prob, max_factor, label] :
       {std::tuple{0.3, 2, "mild (30% of tasks, D up to 2T)"},
        std::tuple{0.7, 4, "heavy (70% of tasks, D up to 4T)"}}) {
    std::cout << "== E9: arbitrary-deadline federated scheduling — stretch "
              << label << ", m = " << m << ", " << trials
              << " systems/point\n";
    Table t({"U/m", "NEC-upper", "clamp-to-period", "pipelined",
             "mean instances/cluster", "mean extra procs"});
    Rng master(31337);
    for (double nu : {0.2, 0.3, 0.4, 0.5, 0.6, 0.7}) {
      TaskSetParams params;
      params.num_tasks = 2 * m;
      params.total_utilization = nu * m;
      params.utilization_cap = m;
      params.period_min = 100;
      params.period_max = 20000;
      params.topology = DagTopology::kMixed;
      std::size_t nec = 0, clamped = 0, pipelined = 0;
      OnlineStats instances, extra;
      for (int i = 0; i < trials; ++i) {
        Rng rng = master.split();
        TaskSystem base = generate_task_system(rng, params);
        TaskSystem sys = stretch_deadlines(base, rng, stretch_prob,
                                           max_factor);
        if (passes_necessary_conditions(sys, m)) ++nec;
        if (arbitrary_federated_schedulable(
                sys, m, ArbitraryStrategy::kClampToPeriod)) {
          ++clamped;
        }
        auto pipe = arbitrary_federated_schedule(
            sys, m, ArbitraryStrategy::kPipelined);
        if (pipe.success) {
          ++pipelined;
          for (const auto& c : pipe.clusters) {
            instances.add(c.instances);
            extra.add(c.total_processors() - c.processors_per_instance);
          }
        }
      }
      t.add_row({fmt_double(nu, 1),
                 fmt_ratio(nec, static_cast<std::size_t>(trials)),
                 fmt_ratio(clamped, static_cast<std::size_t>(trials)),
                 fmt_ratio(pipelined, static_cast<std::size_t>(trials)),
                 instances.count() ? fmt_double(instances.mean(), 2) : "n/a",
                 extra.count() ? fmt_double(extra.mean(), 2) : "n/a"});
    }
    t.print(std::cout);
    if (csv) t.print_csv(std::cout);
    std::cout << "\n";
  }
  // Decisive family: pipelined chains with len > T. Clamping is hopeless
  // (len > min(D,T) = T for every member); pipelining sizes k = ⌈len/T⌉
  // instances and succeeds whenever k chains fit the platform.
  std::cout << "== E9b: overlapping-chain family — chain of c unit-jobs, "
               "T = 2, D = len (one dag-job spans c/2 periods)\n";
  Table t2({"chain length c", "delta", "clamp verdict", "pipelined verdict",
            "instances k", "processors used"});
  for (int c : {2, 4, 6, 8, 12}) {
    DagBuilder g;
    VertexId prev = g.add_vertex(1);
    for (int i = 1; i < c; ++i) {
      VertexId v = g.add_vertex(1);
      g.add_edge(prev, v);
      prev = v;
    }
    TaskSystem sys;
    sys.add(DagTask(g.build(), /*deadline=*/c, /*period=*/2, "chain"));
    bool clamp = arbitrary_federated_schedulable(
        sys, 16, ArbitraryStrategy::kClampToPeriod);
    auto pipe = arbitrary_federated_schedule(sys, 16,
                                             ArbitraryStrategy::kPipelined);
    t2.add_row({fmt_int(c), sys[0].density().to_string(),
                clamp ? "accept" : "reject",
                pipe.success ? "accept" : "reject",
                pipe.success ? fmt_int(pipe.clusters[0].instances) : "n/a",
                pipe.success ? fmt_int(pipe.clusters[0].total_processors())
                             : "n/a"});
  }
  t2.print(std::cout);
  if (csv) t2.print_csv(std::cout);

  std::cout << "\nExpected shape: pipelined ≥ clamp-to-period at every load "
               "(E9a), and on the overlapping-chain family (E9b) clamping "
               "rejects every member with c > T while pipelining accepts "
               "with k = ⌈c/2⌉ instances.\n";
  return 0;
}
