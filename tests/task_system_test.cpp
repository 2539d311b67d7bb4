// Tests for TaskSystem aggregates and classification.
#include "fedcons/core/task_system.h"

#include <gtest/gtest.h>

#include "fedcons/core/builders.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period,
                    std::string name = {}) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period, std::move(name));
}

TEST(TaskSystemTest, EmptySystem) {
  TaskSystem sys;
  EXPECT_TRUE(sys.empty());
  EXPECT_EQ(sys.size(), 0u);
  EXPECT_EQ(sys.total_utilization(), BigRational(0));
  EXPECT_EQ(sys.deadline_class(), DeadlineClass::kImplicit);
  EXPECT_TRUE(sys.all_critical_paths_feasible());
  EXPECT_THROW(sys[0], ContractViolation);
}

TEST(TaskSystemTest, AggregateUtilization) {
  TaskSystem sys;
  sys.add(simple_task(1, 4, 4));   // u = 1/4
  sys.add(simple_task(1, 2, 2));   // u = 1/2
  sys.add(simple_task(3, 12, 12)); // u = 1/4
  EXPECT_EQ(sys.total_utilization(), BigRational(1));
  EXPECT_NEAR(sys.total_utilization_approx(), 1.0, 1e-12);
}

TEST(TaskSystemTest, AggregateDensity) {
  TaskSystem sys;
  sys.add(simple_task(1, 2, 4));  // δ = 1/2
  sys.add(simple_task(1, 4, 4));  // δ = 1/4
  EXPECT_EQ(sys.total_density(), make_ratio(3, 4));
}

TEST(TaskSystemTest, DeadlineClassAggregation) {
  TaskSystem implicit;
  implicit.add(simple_task(1, 10, 10));
  EXPECT_EQ(implicit.deadline_class(), DeadlineClass::kImplicit);

  TaskSystem constrained;
  constrained.add(simple_task(1, 10, 10));
  constrained.add(simple_task(1, 5, 10));
  EXPECT_EQ(constrained.deadline_class(), DeadlineClass::kConstrained);

  TaskSystem arbitrary;
  arbitrary.add(simple_task(1, 5, 10));
  arbitrary.add(simple_task(1, 20, 10));
  EXPECT_EQ(arbitrary.deadline_class(), DeadlineClass::kArbitrary);
}

TEST(TaskSystemTest, HighLowSplitIsPartition) {
  TaskSystem sys;
  sys.add(simple_task(10, 10, 20));  // δ = 1: high
  sys.add(simple_task(1, 10, 20));   // δ = 1/10: low
  sys.add(simple_task(30, 10, 30));  // δ = 3: high
  auto high = sys.high_density_tasks();
  auto low = sys.low_density_tasks();
  EXPECT_EQ(high, (std::vector<TaskId>{0, 2}));
  EXPECT_EQ(low, (std::vector<TaskId>{1}));
  EXPECT_EQ(high.size() + low.size(), sys.size());
}

TEST(TaskSystemTest, CriticalPathFeasibility) {
  TaskSystem sys;
  sys.add(simple_task(5, 5, 10));
  EXPECT_TRUE(sys.all_critical_paths_feasible());
  sys.add(simple_task(6, 5, 10));
  EXPECT_FALSE(sys.all_critical_paths_feasible());
}

TEST(TaskSystemTest, ScaledBySpeed) {
  TaskSystem sys;
  sys.add(simple_task(8, 10, 10));
  sys.add(simple_task(4, 10, 10));
  TaskSystem fast = sys.scaled_by_speed(2.0);
  ASSERT_EQ(fast.size(), 2u);
  EXPECT_EQ(fast[0].vol(), 4);
  EXPECT_EQ(fast[1].vol(), 2);
}

TEST(TaskSystemTest, SummaryMentionsTasks) {
  TaskSystem sys;
  sys.add(simple_task(10, 10, 20, "hot"));
  sys.add(simple_task(1, 10, 20));
  std::string s = sys.summary();
  EXPECT_NE(s.find("2 tasks"), std::string::npos);
  EXPECT_NE(s.find("hot"), std::string::npos);
  EXPECT_NE(s.find("[HIGH]"), std::string::npos);
  EXPECT_NE(s.find("[low]"), std::string::npos);
}

TEST(TaskSystemTest, CapacityAugmentationExample) {
  // Paper, Example 2: n tasks, each (C=1, D=1, T=n).
  const int n = 5;
  TaskSystem sys = make_capacity_augmentation_counterexample(n);
  ASSERT_EQ(sys.size(), 5u);
  for (const auto& t : sys) {
    EXPECT_EQ(t.vol(), 1);
    EXPECT_EQ(t.deadline(), 1);
    EXPECT_EQ(t.period(), n);
    EXPECT_TRUE(t.is_high_density());  // δ = 1
    EXPECT_TRUE(t.critical_path_feasible());
  }
  // U_sum = n · (1/n) = 1.
  EXPECT_EQ(sys.total_utilization(), BigRational(1));
}

TEST(TaskSystemTest, RangeIteration) {
  TaskSystem sys;
  sys.add(simple_task(1, 2, 3));
  sys.add(simple_task(2, 3, 4));
  Time vols = 0;
  for (const auto& t : sys) vols += t.vol();
  EXPECT_EQ(vols, 3);
}

}  // namespace
}  // namespace fedcons
