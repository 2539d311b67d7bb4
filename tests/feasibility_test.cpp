// Tests for the necessary-feasibility battery (the clairvoyant-OPT proxy).
#include "fedcons/analysis/feasibility.h"

#include <gtest/gtest.h>

#include "fedcons/core/builders.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

TEST(FeasibilityTest, EmptySystemPasses) {
  EXPECT_TRUE(passes_necessary_conditions(TaskSystem{}, 1));
}

TEST(FeasibilityTest, CriticalPathConditionFires) {
  TaskSystem sys;
  sys.add(simple_task(10, 5, 20));  // len 10 > D 5
  auto r = necessary_feasibility(sys, 8);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.failed_condition.find("len > D"), std::string::npos);
}

TEST(FeasibilityTest, UtilizationConditionFires) {
  TaskSystem sys;
  // Three tasks of utilization 1 each on m = 2.
  for (int i = 0; i < 3; ++i) sys.add(simple_task(10, 10, 10));
  auto r = necessary_feasibility(sys, 2);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.failed_condition.find("U_sum > m"), std::string::npos);
}

TEST(FeasibilityTest, VolumeWindowConditionFires) {
  TaskSystem sys;
  // vol = 50 parallel units, D = 5, m = 2: 50 > 2·5 even though len = 1 ≤ D.
  DagBuilder g;
  for (int i = 0; i < 50; ++i) g.add_vertex(1);
  sys.add(DagTask(g.build(), 5, 100));
  auto r = necessary_feasibility(sys, 2);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.failed_condition.find("vol > m*D"), std::string::npos);
}

TEST(FeasibilityTest, GlobalDemandConditionFires) {
  // Each task individually fits its window, combined demand does not:
  // three tasks (C=2, D=2, T=100) on m = 2: at t = 2 demand 6 > 4.
  TaskSystem sys;
  for (int i = 0; i < 3; ++i) sys.add(simple_task(2, 2, 100));
  auto r = necessary_feasibility(sys, 2);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.failed_condition.find("demand"), std::string::npos);
}

TEST(FeasibilityTest, ComfortableSystemPasses) {
  TaskSystem sys;
  sys.add(make_paper_example_task());
  sys.add(simple_task(2, 10, 20));
  EXPECT_TRUE(passes_necessary_conditions(sys, 2));
}

TEST(FeasibilityTest, RejectsInvalidM) {
  EXPECT_THROW(necessary_feasibility(TaskSystem{}, 0), ContractViolation);
}

TEST(FeasibilityTest, Example2FamilyIsBorderlineFeasible) {
  // Paper Example 2: n tasks (C=1, D=1, T=n) pass all necessary conditions
  // on m = n processors (each gets one), but fail on m < n because the
  // synchronous release at t = 1 demands n units of work in a window where
  // only m are available.
  const int n = 6;
  TaskSystem sys = make_capacity_augmentation_counterexample(n);
  EXPECT_TRUE(passes_necessary_conditions(sys, n));
  auto r = necessary_feasibility(sys, n - 1);
  EXPECT_FALSE(r.passed);
}

TEST(FeasibilityTest, MonotoneInProcessorCount) {
  Rng rng(31);
  TaskSetParams params;
  params.num_tasks = 6;
  params.total_utilization = 3.0;
  params.utilization_cap = 4.0;
  for (int trial = 0; trial < 20; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    bool prev = false;
    for (int m = 1; m <= 8; ++m) {
      bool now = passes_necessary_conditions(sys, m);
      EXPECT_TRUE(!prev || now)
          << "necessary conditions must be monotone in m";
      prev = now;
    }
  }
}

}  // namespace
}  // namespace fedcons
