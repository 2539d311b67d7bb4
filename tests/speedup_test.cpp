// Tests for empirical speedup measurement.
#include "fedcons/federated/speedup.h"

#include <gtest/gtest.h>

#include "fedcons/analysis/edf_uniproc.h"
#include "fedcons/core/builders.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

AcceptanceTest fedcons_test() {
  return [](const TaskSystem& s, int m) { return fedcons_schedulable(s, m); };
}

TEST(SpeedupBoundTest, TheoremOneFormula) {
  EXPECT_DOUBLE_EQ(fedcons_speedup_bound(1), 2.0);
  EXPECT_DOUBLE_EQ(fedcons_speedup_bound(2), 2.5);
  EXPECT_DOUBLE_EQ(fedcons_speedup_bound(4), 2.75);
}

TEST(MinSpeedTest, AlreadySchedulableReturnsOne) {
  TaskSystem sys;
  sys.add(simple_task(1, 10, 10));
  auto s = min_speed(sys, 1, fedcons_test());
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(*s, 1.0);
}

TEST(MinSpeedTest, NeverSchedulableReturnsNullopt) {
  // len > D cannot be fixed by the integer speed model: a 1-tick vertex
  // chain longer than D keeps len > D at any speed (⌈1/s⌉ = 1).
  DagBuilder g;
  VertexId prev = g.add_vertex(1);
  for (int i = 0; i < 10; ++i) {
    VertexId v = g.add_vertex(1);
    g.add_edge(prev, v);
    prev = v;
  }
  TaskSystem sys;
  sys.add(DagTask(g.build(), 5, 20));
  EXPECT_FALSE(min_speed(sys, 4, fedcons_test()).has_value());
}

TEST(MinSpeedTest, TwiceTooMuchWorkNeedsSpeedTwo) {
  // One task with vol = 2D on one processor: accepted exactly when WCETs
  // halve, i.e. at s ≈ 2.
  TaskSystem sys;
  sys.add(simple_task(200, 100, 100));
  auto s = min_speed(sys, 1, fedcons_test(), 8.0, 1.0 / 64.0);
  ASSERT_TRUE(s.has_value());
  EXPECT_GE(*s, 2.0 - 1.0 / 32.0);
  EXPECT_LE(*s, 2.0 + 1.0 / 16.0);
}

TEST(MinSpeedTest, ReturnedSpeedIsActuallyAccepted) {
  TaskSystem sys;
  sys.add(simple_task(150, 100, 100));
  sys.add(simple_task(30, 60, 120));
  auto s = min_speed(sys, 1, fedcons_test());
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(fedcons_schedulable(sys.scaled_by_speed(*s), 1));
}

TEST(MinSpeedTest, ValidatesArguments) {
  TaskSystem sys;
  sys.add(simple_task(1, 10, 10));
  EXPECT_THROW(min_speed(sys, 0, fedcons_test()), ContractViolation);
  EXPECT_THROW(min_speed(sys, 1, fedcons_test(), 0.5), ContractViolation);
  EXPECT_THROW(min_speed(sys, 1, fedcons_test(), 8.0, 0.0),
               ContractViolation);
}

TEST(MinSpeedTest, Example2RequiredSpeedGrowsLinearly) {
  // The paper's Example 2 at tick granularity K: n tasks (C=K, D=K, T=nK)
  // on ONE processor need speed ≈ n under exact EDF — the capacity
  // augmentation divergence, measured (experiment E2's analytical core).
  const Time k = 64;
  AcceptanceTest uniproc_edf = [](const TaskSystem& s, int m) {
    if (m != 1) return false;
    std::vector<SporadicTask> seq;
    for (const auto& t : s) seq.push_back(t.to_sequential());
    return edf_schedulable(seq);
  };
  double prev_speed = 0.0;
  for (int n : {2, 3, 4}) {
    TaskSystem sys;
    for (int i = 0; i < n; ++i) {
      DagBuilder g;
      g.add_vertex(k);
      sys.add(DagTask(g.build(), k, n * k));
    }
    auto s = min_speed(sys, 1, uniproc_edf, 8.0, 1.0 / 64.0);
    ASSERT_TRUE(s.has_value()) << "n = " << n;
    EXPECT_GT(*s, static_cast<double>(n) - 0.25);
    EXPECT_LT(*s, static_cast<double>(n) + 0.25);
    EXPECT_GT(*s, prev_speed);
    prev_speed = *s;
  }
}

}  // namespace
}  // namespace fedcons
