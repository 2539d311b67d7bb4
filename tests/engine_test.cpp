// Engine layer: registry lookup, adapters, batch runner, and the
// determinism contract (parallel == serial, bit for bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <set>
#include <stdexcept>

#include "fedcons/core/builders.h"
#include "fedcons/engine/adapters.h"
#include "fedcons/engine/batch_runner.h"
#include "fedcons/engine/registry.h"
#include "fedcons/expr/acceptance.h"
#include "fedcons/expr/speedup_experiment.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period) {
  Dag g;
  g.add_vertex(wcet);
  return DagTask(std::move(g), deadline, period);
}

TaskSystem constrained_system() {
  TaskSystem sys;
  sys.add(simple_task(2, 8, 10));
  sys.add(simple_task(3, 10, 20));
  return sys;
}

TaskSystem arbitrary_system() {
  TaskSystem sys;
  sys.add(simple_task(2, 15, 10));  // D > T
  return sys;
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, GlobalContainsBuiltinBattery) {
  TestRegistry& reg = TestRegistry::global();
  for (const char* name :
       {"FEDCONS", "FEDCONS-lit", "FED-LI-implicit", "FED-LI-adapt", "P-SEQ",
        "P-DM", "GEDF-density", "ARBFED", "ARBFED-clamp"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_EQ(reg.make(name)->name(), name);
  }
}

TEST(RegistryTest, LookupIsCaseInsensitive) {
  TestRegistry& reg = TestRegistry::global();
  EXPECT_TRUE(reg.contains("fedcons"));
  EXPECT_TRUE(reg.contains("Gedf-Density"));
  // Display capitalization is preserved regardless of the query's.
  EXPECT_EQ(reg.make("fedcons")->name(), "FEDCONS");
}

TEST(RegistryTest, UnknownNameThrows) {
  EXPECT_FALSE(TestRegistry::global().contains("no-such-algorithm"));
  EXPECT_THROW(TestRegistry::global().make("no-such-algorithm"),
               ContractViolation);
}

TEST(RegistryTest, DuplicateAddThrows) {
  TestRegistry reg;
  register_builtin_tests(reg);
  EXPECT_THROW(
      reg.add(make_function_test("fedcons", "case-insensitive clash",
                                 [](const TaskSystem&, int) { return true; })),
      ContractViolation);
}

TEST(RegistryTest, NamesAreSorted) {
  TestRegistry reg;
  register_builtin_tests(reg);
  auto names = reg.names();
  EXPECT_EQ(names.size(), 9u);
  auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  };
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end(),
                             [&](const std::string& a, const std::string& b) {
                               return lower(a) < lower(b);
                             }));
}

// ---------------------------------------------------------------- adapters

TEST(AdapterTest, FedconsAdapterMatchesDirectCall) {
  TestPtr test = TestRegistry::global().make("FEDCONS");
  TaskSetParams params;
  params.num_tasks = 8;
  params.total_utilization = 3.0;
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    Rng sys_rng = rng.split();
    TaskSystem sys = generate_task_system(sys_rng, params);
    EXPECT_EQ(test->admits(sys, 4), fedcons_schedulable(sys, 4)) << i;
  }
}

TEST(AdapterTest, DeadlineClassGating) {
  TestRegistry& reg = TestRegistry::global();
  EXPECT_EQ(reg.make("FEDCONS")->max_deadline_class(),
            DeadlineClass::kConstrained);
  EXPECT_EQ(reg.make("FED-LI-implicit")->max_deadline_class(),
            DeadlineClass::kImplicit);
  EXPECT_EQ(reg.make("ARBFED")->max_deadline_class(),
            DeadlineClass::kArbitrary);

  TaskSystem constrained = constrained_system();
  TaskSystem arbitrary = arbitrary_system();
  EXPECT_TRUE(reg.make("FEDCONS")->supports(constrained));
  EXPECT_FALSE(reg.make("FEDCONS")->supports(arbitrary));
  EXPECT_FALSE(reg.make("FED-LI-implicit")->supports(constrained));
  EXPECT_TRUE(reg.make("ARBFED")->supports(arbitrary));

  // admits_checked turns the contract into a rejection instead of a throw.
  EXPECT_FALSE(reg.make("FEDCONS")->admits_checked(arbitrary, 4));
  EXPECT_TRUE(reg.make("ARBFED")->admits_checked(constrained, 4));
}

TEST(AdapterTest, FunctionTestCarriesMetadata) {
  TestPtr t = make_function_test(
      "always-yes", "accepts everything",
      [](const TaskSystem&, int) { return true; }, DeadlineClass::kArbitrary);
  EXPECT_EQ(t->name(), "always-yes");
  EXPECT_EQ(t->description(), "accepts everything");
  EXPECT_EQ(t->max_deadline_class(), DeadlineClass::kArbitrary);
  EXPECT_TRUE(t->admits(constrained_system(), 1));
}

// ------------------------------------------------------------ batch runner

TEST(BatchRunnerTest, TrialSeedIsPureAndWellSpread) {
  EXPECT_EQ(trial_seed(42, 0), trial_seed(42, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(trial_seed(42, i));
  EXPECT_EQ(seeds.size(), 1000u);          // no collisions across indices
  EXPECT_NE(trial_seed(42, 0), trial_seed(43, 0));  // master seed matters
}

TEST(BatchRunnerTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 4}) {
    BatchRunner runner(threads);
    EXPECT_GE(runner.num_threads(), 1);
    constexpr std::size_t n = 257;  // not a multiple of any thread count
    std::vector<std::atomic<int>> hits(n);
    runner.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    // An empty batch and a reused runner are both fine.
    runner.parallel_for(0, [&](std::size_t) { FAIL(); });
    std::atomic<int> count{0};
    runner.parallel_for(5, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 5);
  }
}

// Back-to-back small batches on one pool: a worker can wake after the caller
// has finished a batch alone, and such a late worker must neither drop nor
// repeat an index of the batch that follows.
TEST(BatchRunnerTest, ReusedRunnerRunsEveryIndexOfEveryBatch) {
  BatchRunner runner(4);
  for (int batch = 0; batch < 2000; ++batch) {
    const std::size_t n = 1 + static_cast<std::size_t>(batch % 4);
    std::vector<std::atomic<int>> hits(n);
    runner.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " index " << i;
    }
  }
}

TEST(BatchRunnerTest, ExceptionsPropagateToCaller) {
  for (int threads : {1, 3}) {
    BatchRunner runner(threads);
    EXPECT_THROW(runner.parallel_for(
                     8,
                     [](std::size_t i) {
                       if (i == 5) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The pool survives a throwing batch.
    std::atomic<int> count{0};
    runner.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
  }
}

TEST(BatchRunnerTest, RunTrialsIsThreadCountInvariant) {
  const std::function<std::uint64_t(std::size_t, Rng&)> trial =
      [](std::size_t i, Rng& rng) { return rng.next_u64() ^ i; };
  BatchRunner serial(1);
  auto expected = serial.run_trials<std::uint64_t>(100, 9001, trial);
  for (int threads : {2, 4}) {
    BatchRunner runner(threads);
    EXPECT_EQ(runner.run_trials<std::uint64_t>(100, 9001, trial), expected)
        << threads;
  }
}

// ------------------------------------------- determinism of the experiments

std::vector<AcceptancePoint> small_sweep(int num_threads) {
  SweepConfig cfg;
  cfg.m = 4;
  cfg.trials = 30;
  cfg.seed = 1234;
  cfg.num_threads = num_threads;
  cfg.normalized_utils = {0.3, 0.6, 0.9};
  cfg.base.num_tasks = 6;
  return run_acceptance_sweep(cfg, standard_algorithms());
}

TEST(DeterminismTest, SweepVerdictsIdenticalAcrossThreadCounts) {
  auto serial = small_sweep(1);
  ASSERT_EQ(serial.size(), 3u);
  for (int threads : {2, 4}) {
    auto parallel = small_sweep(threads);
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (std::size_t p = 0; p < serial.size(); ++p) {
      EXPECT_EQ(parallel[p].normalized_util, serial[p].normalized_util);
      EXPECT_EQ(parallel[p].trials, serial[p].trials);
      EXPECT_EQ(parallel[p].feasible_upper_bound,
                serial[p].feasible_upper_bound);
      EXPECT_EQ(parallel[p].accepted, serial[p].accepted);
      EXPECT_EQ(parallel[p].counters, serial[p].counters);
    }
  }
}

TEST(DeterminismTest, SpeedupExperimentIdenticalAcrossThreadCounts) {
  auto run = [](int num_threads) {
    SpeedupExperimentConfig cfg;
    cfg.m = 4;
    cfg.samples = 10;
    cfg.max_attempts = 300;
    cfg.seed = 77;
    cfg.num_threads = num_threads;
    cfg.base.num_tasks = 6;
    return run_speedup_experiment(cfg);
  };
  auto serial = run(1);
  EXPECT_EQ(serial.measured,
            static_cast<int>(serial.speeds.size()) + serial.never_accepted);
  for (int threads : {2, 4}) {
    auto parallel = run(threads);
    EXPECT_EQ(parallel.speeds, serial.speeds) << threads;
    EXPECT_EQ(parallel.accepted_at_unit, serial.accepted_at_unit);
    EXPECT_EQ(parallel.never_accepted, serial.never_accepted);
    EXPECT_EQ(parallel.measured, serial.measured);
  }
}

TEST(DeterminismTest, CountersAccumulateAcrossAlgorithms) {
  auto points = small_sweep(2);
  // The battery includes FEDCONS and P-SEQ, so every point must have done
  // some DBF* partitioning work and (at nontrivial load) LS/MINPROCS work.
  std::uint64_t dbf = 0, ls = 0, scans = 0;
  for (const auto& p : points) {
    dbf += p.counters.dbf_star_evaluations;
    ls += p.counters.ls_invocations;
    scans += p.counters.minprocs_scan_iterations;
  }
  EXPECT_GT(dbf, 0u);
  // LS runs only when high-density tasks exist; the heavy 0.9-load point
  // makes that overwhelmingly likely, and MINPROCS scans accompany it.
  EXPECT_EQ(ls == 0, scans == 0);
}

}  // namespace
}  // namespace fedcons
