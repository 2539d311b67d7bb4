// Tests for DagTask: metrics, classification, scaling, and the paper's
// Example 1 (Figure 1) — experiment E1's analytical half.
#include "fedcons/core/dag_task.h"

#include <gtest/gtest.h>

#include "fedcons/core/builders.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

TEST(DagTaskTest, ConstructionValidation) {
  EXPECT_THROW(DagTask(Dag{}, 1, 1), ContractViolation);  // empty graph
  const Dag g = DagBuilder{}.vertex(1).build();
  EXPECT_THROW(DagTask(g, 0, 1), ContractViolation);
  EXPECT_THROW(DagTask(g, 1, 0), ContractViolation);
  // A cyclic graph never reaches DagTask: building it throws.
  DagBuilder cyc;
  cyc.add_vertex(1);
  cyc.add_vertex(1);
  cyc.add_edge(0, 1);
  cyc.add_edge(1, 0);
  EXPECT_THROW((void)cyc.build(), ContractViolation);
}

TEST(DagTaskTest, PaperExample1Metrics) {
  // Paper, Example 1: len=6, vol=9, δ=9/16, u=9/20, low-density.
  DagTask t = make_paper_example_task();
  EXPECT_EQ(t.graph().num_vertices(), 5u);
  EXPECT_EQ(t.graph().num_edges(), 5u);
  EXPECT_EQ(t.vol(), 9);
  EXPECT_EQ(t.len(), 6);
  EXPECT_EQ(t.deadline(), 16);
  EXPECT_EQ(t.period(), 20);
  EXPECT_EQ(t.density(), make_ratio(9, 16));
  EXPECT_EQ(t.utilization(), make_ratio(9, 20));
  EXPECT_TRUE(t.is_low_density());
  EXPECT_FALSE(t.is_high_utilization());
  EXPECT_EQ(t.deadline_class(), DeadlineClass::kConstrained);
  EXPECT_TRUE(t.critical_path_feasible());
}

TEST(DagTaskTest, DensityUsesMinOfDeadlineAndPeriod) {
  // Constrained: min(D,T) = D.
  DagTask c = simple_task(6, 10, 20);
  EXPECT_EQ(c.density(), make_ratio(6, 10));
  // Arbitrary-deadline: min(D,T) = T.
  DagTask a = simple_task(6, 30, 20);
  EXPECT_EQ(a.density(), make_ratio(6, 20));
  EXPECT_EQ(a.deadline_class(), DeadlineClass::kArbitrary);
}

TEST(DagTaskTest, HighDensityBoundaryIsExact) {
  EXPECT_TRUE(simple_task(10, 10, 20).is_high_density());   // δ == 1
  EXPECT_FALSE(simple_task(9, 10, 20).is_high_density());   // δ < 1
  EXPECT_TRUE(simple_task(11, 10, 20).is_high_density());   // δ > 1
}

TEST(DagTaskTest, HighUtilizationBoundaryIsExact) {
  EXPECT_TRUE(simple_task(20, 20, 20).is_high_utilization());
  EXPECT_FALSE(simple_task(19, 20, 20).is_high_utilization());
}

TEST(DagTaskTest, DeadlineClasses) {
  EXPECT_EQ(simple_task(1, 10, 10).deadline_class(), DeadlineClass::kImplicit);
  EXPECT_EQ(simple_task(1, 5, 10).deadline_class(),
            DeadlineClass::kConstrained);
  EXPECT_EQ(simple_task(1, 15, 10).deadline_class(),
            DeadlineClass::kArbitrary);
  EXPECT_STREQ(to_string(DeadlineClass::kImplicit), "implicit");
  EXPECT_STREQ(to_string(DeadlineClass::kConstrained), "constrained");
  EXPECT_STREQ(to_string(DeadlineClass::kArbitrary), "arbitrary");
}

TEST(DagTaskTest, ToSequentialCollapsesVolume) {
  DagTask t = make_paper_example_task();
  SporadicTask s = t.to_sequential();
  EXPECT_EQ(s.wcet, 9);
  EXPECT_EQ(s.deadline, 16);
  EXPECT_EQ(s.period, 20);
  EXPECT_EQ(s.density(), t.density());
  EXPECT_EQ(s.utilization(), t.utilization());
}

TEST(DagTaskTest, CriticalPathFeasibility) {
  EXPECT_TRUE(simple_task(5, 5, 10).critical_path_feasible());
  EXPECT_FALSE(simple_task(6, 5, 10).critical_path_feasible());
}

TEST(DagTaskTest, ScaledBySpeedHalvesWork) {
  DagTask t = make_paper_example_task();
  DagTask fast = t.scaled_by_speed(2.0);
  // WCETs {1,2,3,2,1} → {1,1,2,1,1}: vol 6.
  EXPECT_EQ(fast.vol(), 6);
  EXPECT_EQ(fast.deadline(), t.deadline());
  EXPECT_EQ(fast.period(), t.period());
  EXPECT_EQ(fast.graph().num_edges(), t.graph().num_edges());
}

TEST(DagTaskTest, ScaledBySpeedKeepsMinimumUnit) {
  DagTask t = simple_task(1, 10, 10);
  EXPECT_EQ(t.scaled_by_speed(100.0).vol(), 1);  // never below 1 tick
}

TEST(DagTaskTest, ScaledBySpeedOneIsIdentityOnWcets) {
  DagTask t = make_paper_example_task();
  DagTask same = t.scaled_by_speed(1.0);
  EXPECT_EQ(same.vol(), t.vol());
  EXPECT_EQ(same.len(), t.len());
}

TEST(DagTaskTest, ScaledBySpeedRejectsNonPositive) {
  DagTask t = make_paper_example_task();
  EXPECT_THROW(t.scaled_by_speed(0.0), ContractViolation);
  EXPECT_THROW(t.scaled_by_speed(-1.0), ContractViolation);
}

TEST(DagTaskTest, SequentialTaskValidation) {
  EXPECT_THROW(SporadicTask(0, 1, 1), ContractViolation);
  EXPECT_THROW(SporadicTask(1, 0, 1), ContractViolation);
  EXPECT_THROW(SporadicTask(1, 1, 0), ContractViolation);
  SporadicTask t(2, 4, 8);
  EXPECT_TRUE(t.is_constrained_deadline());
  EXPECT_FALSE(t.is_implicit_deadline());
  EXPECT_EQ(t.utilization(), make_ratio(1, 4));
  EXPECT_EQ(t.density(), make_ratio(1, 2));
}

}  // namespace
}  // namespace fedcons
