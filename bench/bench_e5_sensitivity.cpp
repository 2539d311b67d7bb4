// Experiment E5 — sensitivity of acceptance to generator parameters:
// deadline ratio D/T, DAG topology, and task count. Complements E3 by
// showing the qualitative conclusions are not artifacts of one generator
// configuration (the paper's own caveat: "such results are necessarily
// deeply influenced by the manner in which we generate our task systems").
#include <iostream>

#include "fedcons/expr/acceptance.h"
#include "fedcons/expr/reports.h"
#include "fedcons/util/flags.h"

using namespace fedcons;

namespace {

SweepConfig base_config(int trials, std::uint64_t seed) {
  SweepConfig cfg;
  cfg.m = 8;
  cfg.trials = trials;
  cfg.seed = seed;
  cfg.normalized_utils = {0.2, 0.4, 0.6, 0.8};
  cfg.base.num_tasks = 16;
  cfg.base.period_min = 100;
  cfg.base.period_max = 50000;
  return cfg;
}

}  // namespace

int run(const Flags& flags) {
  const bool csv = flags.get_bool("csv", false);
  const int trials = flags.get_int("trials", 100, 1);
  auto algorithms = standard_algorithms();

  // (a) Deadline-ratio sweep: tighter D/T shifts every curve left, and the
  // gap between FEDCONS (DBF*-aware) and density-based baselines widens.
  for (auto [lo, hi, label] :
       {std::tuple{0.25, 0.5, "tight"}, std::tuple{0.5, 0.75, "medium"},
        std::tuple{0.75, 1.0, "loose"}}) {
    SweepConfig cfg = base_config(trials, 1000);
    cfg.base.deadline_ratio_min = lo;
    cfg.base.deadline_ratio_max = hi;
    auto points = run_acceptance_sweep(cfg, algorithms);
    print_report(std::cout,
                 std::string("E5a: deadline ratio D/T in [") +
                     fmt_double(lo, 2) + ", " + fmt_double(hi, 2) + "] (" +
                     label + ")",
                 acceptance_table(points, algorithms), csv);
  }

  // (b) Topology sweep.
  for (auto topo : {DagTopology::kLayered, DagTopology::kForkJoin}) {
    SweepConfig cfg = base_config(trials, 2000);
    cfg.base.topology = topo;
    auto points = run_acceptance_sweep(cfg, algorithms);
    print_report(std::cout,
                 std::string("E5b: topology = ") + to_string(topo),
                 acceptance_table(points, algorithms), csv);
  }

  // (c) Task-count sweep: many light tasks vs few heavy ones at equal load.
  for (int n : {8, 16, 32}) {
    SweepConfig cfg = base_config(trials, 3000);
    cfg.base.num_tasks = n;
    auto points = run_acceptance_sweep(cfg, algorithms);
    print_report(std::cout, "E5c: n = " + std::to_string(n) + " tasks",
                 acceptance_table(points, algorithms), csv);
  }

  // Summary: weighted schedulability per configuration — one scalar per
  // algorithm per row (utilization-weighted mean of the acceptance curve),
  // the standard cross-parameter comparison view.
  std::cout << "== E5 summary: weighted schedulability\n";
  std::vector<std::string> header{"configuration"};
  for (const auto& a : algorithms) header.push_back(a.name);
  Table summary(std::move(header));
  auto add_summary = [&](const std::string& label, const SweepConfig& cfg) {
    auto points = run_acceptance_sweep(cfg, algorithms);
    auto w = weighted_schedulability(points, algorithms.size());
    std::vector<std::string> row{label};
    for (double v : w) row.push_back(fmt_double(v));
    summary.add_row(std::move(row));
  };
  {
    SweepConfig tight = base_config(trials, 1000);
    tight.base.deadline_ratio_min = 0.25;
    tight.base.deadline_ratio_max = 0.5;
    add_summary("D/T tight [0.25,0.5]", tight);
    SweepConfig loose = base_config(trials, 1000);
    loose.base.deadline_ratio_min = 0.75;
    loose.base.deadline_ratio_max = 1.0;
    add_summary("D/T loose [0.75,1.0]", loose);
    SweepConfig few = base_config(trials, 3000);
    few.base.num_tasks = 8;
    add_summary("n = 8 heavy tasks", few);
    SweepConfig many = base_config(trials, 3000);
    many.base.num_tasks = 32;
    add_summary("n = 32 light tasks", many);
  }
  summary.print(std::cout);
  if (csv) summary.print_csv(std::cout);
  std::cout << "\nExpected shape: FEDCONS leads every row; every algorithm's "
               "weighted score rises with looser deadlines and lighter "
               "tasks.\n";
  return 0;
}
