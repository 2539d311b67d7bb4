// Tests for WCET sensitivity analysis.
#include "fedcons/federated/sensitivity.h"

#include <gtest/gtest.h>

#include "fedcons/core/builders.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

SensitivityTest fedcons_test() {
  return [](const TaskSystem& s, int m) { return fedcons_schedulable(s, m); };
}

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

TEST(ScaleTaskWcetsTest, ScalesOnlyTheTarget) {
  TaskSystem sys;
  sys.add(simple_task(10, 100, 100));
  sys.add(simple_task(20, 100, 100));
  TaskSystem scaled = scale_task_wcets(sys, 0, 1.5);
  EXPECT_EQ(scaled[0].vol(), 15);
  EXPECT_EQ(scaled[1].vol(), 20);
  EXPECT_THROW(scale_task_wcets(sys, 5, 1.5), ContractViolation);
  EXPECT_THROW(scale_task_wcets(sys, 0, 0.0), ContractViolation);
}

TEST(ScaleTaskWcetsTest, PreservesStructure) {
  TaskSystem sys;
  sys.add(make_paper_example_task());
  TaskSystem scaled = scale_task_wcets(sys, 0, 2.0);
  EXPECT_EQ(scaled[0].graph().num_edges(), 5u);
  EXPECT_EQ(scaled[0].vol(), 18);
  EXPECT_EQ(scaled[0].deadline(), 16);
}

TEST(SensitivityTest, SingleTaskMarginIsSlackRatio) {
  // vol = 50, D = 100 on one processor: accepted while ⌈50α⌉ ≤ 100 → α = 2.
  TaskSystem sys;
  sys.add(simple_task(50, 100, 100));
  auto margins = wcet_sensitivity(sys, 1, fedcons_test());
  ASSERT_EQ(margins.size(), 1u);
  EXPECT_NEAR(margins[0].margin, 2.0, 1.0 / 16.0);
}

TEST(SensitivityTest, ZeroSlackSystemHasUnitMargin) {
  // Example-2 member: C = D = 1 — any growth breaks the critical path.
  TaskSystem sys = make_capacity_augmentation_counterexample(3);
  auto margins = wcet_sensitivity(sys, 3, fedcons_test(), 4.0);
  for (const auto& m : margins) {
    EXPECT_NEAR(m.margin, 1.0, 1e-9) << "task " << m.task;
  }
  EXPECT_NEAR(system_wcet_margin(sys, 3, fedcons_test(), 4.0), 1.0, 1e-9);
}

TEST(SensitivityTest, UnschedulableSystemReportsZero) {
  TaskSystem sys;
  sys.add(simple_task(200, 100, 100));  // vol > m·D on one processor
  auto margins = wcet_sensitivity(sys, 1, fedcons_test());
  EXPECT_DOUBLE_EQ(margins[0].margin, 0.0);
  EXPECT_DOUBLE_EQ(system_wcet_margin(sys, 1, fedcons_test()), 0.0);
}

TEST(SensitivityTest, MarginsAreAcceptedScales) {
  TaskSystem sys;
  sys.add(make_paper_example_task());
  sys.add(simple_task(3, 20, 40));
  const int m = 1;
  for (const auto& tm : wcet_sensitivity(sys, m, fedcons_test())) {
    ASSERT_GE(tm.margin, 1.0);
    EXPECT_TRUE(fedcons_schedulable(
        scale_task_wcets(sys, tm.task, tm.margin), m))
        << "reported margin not actually accepted (task " << tm.task << ")";
  }
  double sys_margin = system_wcet_margin(sys, m, fedcons_test());
  ASSERT_GE(sys_margin, 1.0);
  EXPECT_TRUE(
      fedcons_schedulable(sys.scaled_by_speed(1.0 / sys_margin), m));
}

TEST(SensitivityTest, SystemMarginBoundedByTaskMargins) {
  // Growing everything includes growing the most constrained task, so the
  // system margin cannot exceed any per-task margin (up to grid rounding).
  TaskSystem sys;
  sys.add(simple_task(40, 100, 100));
  sys.add(simple_task(30, 60, 120));
  const int m = 1;
  double sys_margin = system_wcet_margin(sys, m, fedcons_test());
  for (const auto& tm : wcet_sensitivity(sys, m, fedcons_test())) {
    EXPECT_LE(sys_margin, tm.margin + 1.0 / 32.0);
  }
}

TEST(SensitivityTest, CapsAtMaxScale) {
  TaskSystem sys;
  sys.add(simple_task(1, 1000, 1000));
  double margin = system_wcet_margin(sys, 4, fedcons_test(), 3.0);
  EXPECT_DOUBLE_EQ(margin, 3.0);
}

}  // namespace
}  // namespace fedcons
