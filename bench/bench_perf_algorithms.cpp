// P1 — engineering performance of the analysis algorithms (google-benchmark).
//
// Not a paper table: establishes that the implementation scales to the
// experiment sizes used in E3–E8 (thousands of schedulability tests per
// sweep) with comfortable margins.
#include <benchmark/benchmark.h>

#include <vector>

#include "fedcons/analysis/dbf.h"
#include "fedcons/analysis/edf_uniproc.h"
#include "fedcons/analysis/rta.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/minprocs.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/listsched/optimal_makespan.h"
#include "fedcons/sim/system_sim.h"
#include "fedcons/simd/dispatch.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

std::vector<SporadicTask> random_sequential_tasks(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SporadicTask> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Time period = rng.uniform_int(50, 5000);
    Time deadline = rng.uniform_int(10, period);
    Time wcet = rng.uniform_int(1, std::max<Time>(1, deadline / 4));
    tasks.emplace_back(wcet, deadline, period);
  }
  return tasks;
}

Dag random_dag(int approx_vertices, std::uint64_t seed) {
  Rng rng(seed);
  LayeredDagParams p;
  p.min_layers = approx_vertices / 4;
  p.max_layers = approx_vertices / 4;
  p.min_width = 4;
  p.max_width = 4;
  p.max_wcet = 40;
  return generate_layered_dag(rng, p);
}

void BM_DbfEvaluation(benchmark::State& state) {
  auto tasks = random_sequential_tasks(static_cast<int>(state.range(0)), 1);
  Time t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(total_dbf(tasks, t));
    t = (t + 97) % 100000;
  }
}
BENCHMARK(BM_DbfEvaluation)->Arg(8)->Arg(32)->Arg(128);

void BM_ExactEdfQpa(benchmark::State& state) {
  auto tasks = random_sequential_tasks(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(edf_schedulable_qpa(tasks).schedulable);
  }
}
BENCHMARK(BM_ExactEdfQpa)->Arg(4)->Arg(8)->Arg(16);

void BM_ListSchedule(benchmark::State& state) {
  Dag g = random_dag(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list_schedule(g, 8).makespan());
  }
  state.SetLabel(std::to_string(g.num_vertices()) + " vertices");
}
BENCHMARK(BM_ListSchedule)->Arg(16)->Arg(64)->Arg(256);

// A MINPROCS-heavy instance for budget m: a wide DAG (width == m) whose
// deadline equals Graham's bound at m, so the linear scan has to probe a
// long prefix of [⌈δ⌉, m] before the makespan fits. This is the workload
// the bound-guided pruning + workspace reuse targets (BENCH_PR2.json).
DagTask minprocs_heavy_task(int m, std::uint64_t seed) {
  Rng rng(seed);
  LayeredDagParams p;
  p.min_layers = 8;
  p.max_layers = 8;
  p.min_width = m;
  p.max_width = m;
  p.max_wcet = 40;
  Dag g = generate_layered_dag(rng, p);
  const Time deadline = std::max(g.len(), graham_bound(g, m));
  return DagTask(std::move(g), deadline, deadline);
}

// The optimized scan: bound-guided cap + thread-local zero-allocation LS.
void BM_Minprocs(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const DagTask t = minprocs_heavy_task(m, 11);
  for (auto _ : state) {
    auto r = minprocs(t, m);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(std::to_string(t.graph().num_vertices()) + " vertices");
}
BENCHMARK(BM_Minprocs)->Arg(8)->Arg(32)->Arg(128);

// Full FEDCONS test (phase 1 + phase 2) on systems sized to keep several
// high-density tasks in play, at the same m grid as BM_Minprocs.
void BM_FedconsFullTest(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(13);
  TaskSetParams params;
  params.num_tasks = 2 * m;
  params.total_utilization = 0.6 * m;
  params.utilization_cap = 8.0;
  TaskSystem sys = generate_task_system(rng, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedcons_schedulable(sys, m));
  }
}
BENCHMARK(BM_FedconsFullTest)->Arg(8)->Arg(32)->Arg(128);

void BM_FedconsEndToEnd(benchmark::State& state) {
  Rng rng(5);
  TaskSetParams params;
  params.num_tasks = static_cast<int>(state.range(0));
  params.total_utilization = static_cast<double>(state.range(1)) * 0.6;
  params.utilization_cap = static_cast<double>(state.range(1));
  TaskSystem sys = generate_task_system(rng, params);
  const int m = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedcons_schedulable(sys, m));
  }
}
BENCHMARK(BM_FedconsEndToEnd)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({32, 16})
    ->Args({64, 32});

void BM_RtaFixpoint(benchmark::State& state) {
  auto tasks = random_sequential_tasks(static_cast<int>(state.range(0)), 7);
  // DM order for a realistic admission workload.
  std::vector<SporadicTask> ordered;
  for (std::size_t i : deadline_monotonic_order(tasks)) {
    ordered.push_back(tasks[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp_schedulable(ordered).schedulable);
  }
}
BENCHMARK(BM_RtaFixpoint)->Arg(4)->Arg(8)->Arg(16);

void BM_DbfApproxK(benchmark::State& state) {
  auto tasks = random_sequential_tasks(16, 8);
  const int k = static_cast<int>(state.range(0));
  Time t = 1;
  for (auto _ : state) {
    BigRational sum;
    for (const auto& task : tasks) sum += dbf_approx_k(task, t, k);
    benchmark::DoNotOptimize(sum);
    t = (t % 100000) + 1;
  }
}
BENCHMARK(BM_DbfApproxK)->Arg(1)->Arg(4)->Arg(8);

void BM_OptimalMakespan(benchmark::State& state) {
  Rng rng(9);
  LayeredDagParams p;
  p.min_layers = 3;
  p.max_layers = 3;
  p.min_width = static_cast<int>(state.range(0)) / 3;
  p.max_width = static_cast<int>(state.range(0)) / 3;
  p.max_wcet = 12;
  Dag g = generate_layered_dag(rng, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_makespan(g, 2).makespan);
  }
  state.SetLabel(std::to_string(g.num_vertices()) + " vertices");
}
BENCHMARK(BM_OptimalMakespan)->Arg(6)->Arg(9)->Arg(12);

void BM_SystemSimulation(benchmark::State& state) {
  Rng rng(6);
  TaskSetParams params;
  params.num_tasks = 12;
  params.total_utilization = 4.0;
  params.utilization_cap = 6.0;
  params.period_min = 50;
  params.period_max = 5000;
  TaskSystem sys = generate_task_system(rng, params);
  auto alloc = fedcons_schedule(sys, 8);
  if (!alloc.success) {
    state.SkipWithError("generated system rejected; adjust seed");
    return;
  }
  SimConfig cfg;
  cfg.horizon = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_system(sys, alloc, cfg).total.jobs_released);
  }
}
BENCHMARK(BM_SystemSimulation)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace fedcons

// Custom main instead of BENCHMARK_MAIN(): stamp the active SIMD backend and
// the assertion mode into the benchmark context, so every emitted JSON
// (BENCH_PR*.json) records what was actually measured — run_perf.sh refuses
// non-Release builds, and these fields make the refusal auditable after the
// fact.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd_backend",
      fedcons::simd::to_string(fedcons::simd::active_backend()));
#ifdef NDEBUG
  benchmark::AddCustomContext("build_assertions", "off (NDEBUG)");
#else
  benchmark::AddCustomContext("build_assertions", "on (debug build?)");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
