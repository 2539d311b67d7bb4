// Tests for the Li et al. federated baseline and its constrained adaptation.
#include "fedcons/federated/federated_implicit.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

TEST(ClosedFormCountTest, Formula) {
  // vol 10, len 2, window 4: ⌈(10−2)/(4−2)⌉ = 4.
  std::array<Time, 4> branches{2, 2, 2, 2};
  DagTask t(make_fork_join(1, branches, 1), 4, 4);
  EXPECT_EQ(t.vol(), 10);
  EXPECT_EQ(t.len(), 4);  // 1 + 2 + 1
  // window 6: ⌈(10−4)/(6−4)⌉ = 3.
  EXPECT_EQ(closed_form_processor_count(t, 6), 3);
  // window 10 = vol: ⌈6/6⌉ = 1.
  EXPECT_EQ(closed_form_processor_count(t, 10), 1);
}

TEST(ClosedFormCountTest, EdgeCases) {
  std::array<Time, 2> w{3, 4};
  DagTask chain(make_chain(w), 7, 10);  // len == vol == 7
  EXPECT_EQ(closed_form_processor_count(chain, 7), 1);   // pure chain fits
  EXPECT_EQ(closed_form_processor_count(chain, 6), -1);  // len > window
  std::array<Time, 2> branches{5, 5};
  DagTask fj(make_fork_join(1, branches, 1), 7, 10);  // len 7, vol 12
  EXPECT_EQ(closed_form_processor_count(fj, 7), -1);  // len == window, vol >
}

TEST(ClosedFormCountTest, GrahamBoundJustifiesTheCount) {
  // For any DAG and window ≥ len: LS on n = ⌈(vol−len)/(w−len)⌉ processors
  // meets the window (makespan ≤ len + (vol−len)/n ≤ w).
  std::array<Time, 5> branches{4, 3, 5, 2, 6};
  Dag g = make_fork_join(2, branches, 1);
  for (Time w = g.len(); w <= g.vol(); ++w) {
    DagTask t(g, w, w);
    int n = closed_form_processor_count(t, w);
    if (n < 0) continue;
    TemplateSchedule s = list_schedule(t.graph(), n);
    EXPECT_LE(s.makespan(), w) << "window " << w << ", n " << n;
  }
}

TEST(LiFederatedTest, RequiresImplicitDeadlines) {
  TaskSystem sys;
  sys.add(simple_task(1, 5, 10));
  EXPECT_THROW(li_federated_implicit(sys, 4), ContractViolation);
}

TEST(LiFederatedTest, ImplicitSystemAccepted) {
  TaskSystem sys;
  // High-utilization: vol 10, len 4, T = D = 4 → wait len ≤ T needed.
  std::array<Time, 4> branches{2, 2, 2, 2};
  sys.add(DagTask(make_fork_join(1, branches, 1), 6, 6));  // vol 10, len 4
  sys.add(simple_task(3, 10, 10));
  sys.add(simple_task(4, 20, 20));
  auto r = li_federated_implicit(sys, 6);
  ASSERT_TRUE(r.success);
  // n_0 = ⌈(10−4)/(6−4)⌉ = 3 dedicated.
  EXPECT_EQ(r.dedicated_processors, 3);
  EXPECT_EQ(r.shared_processors, 3);
}

TEST(LiFederatedTest, FailsWhenDedicatedDemandExceedsPlatform) {
  TaskSystem sys;
  std::array<Time, 8> branches{2, 2, 2, 2, 2, 2, 2, 2};
  sys.add(DagTask(make_fork_join(1, branches, 1), 4, 4));  // vol 18, len 4
  // n = ⌈(18−4)/(4−4)⌉ → len == window with vol > len: reject.
  EXPECT_FALSE(li_federated_implicit(sys, 100).success);
}

TEST(LiFederatedTest, FailurePhaseAttribution) {
  // Dedicated-phase failure: the high task's closed-form count exceeds m.
  TaskSystem heavy;
  std::array<Time, 8> branches{2, 2, 2, 2, 2, 2, 2, 2};
  heavy.add(DagTask(make_fork_join(1, branches, 1), 6, 6));  // n = ⌈14/2⌉ = 7
  auto r1 = li_federated_implicit(heavy, 4);
  EXPECT_FALSE(r1.success);
  EXPECT_EQ(r1.failure, BaselineFailure::kDedicatedPhase);

  // Shared-phase failure: low tasks overflow the remainder.
  TaskSystem low;
  low.add(simple_task(5, 10, 10));
  low.add(simple_task(5, 10, 10));
  low.add(simple_task(5, 10, 10));
  auto r2 = li_federated_implicit(low, 1);
  EXPECT_FALSE(r2.success);
  EXPECT_EQ(r2.failure, BaselineFailure::kSharedPhase);

  // Success reports kNone.
  auto r3 = li_federated_implicit(low, 2);
  EXPECT_TRUE(r3.success);
  EXPECT_EQ(r3.failure, BaselineFailure::kNone);

  EXPECT_STREQ(to_string(BaselineFailure::kNone), "accepted");
  EXPECT_STREQ(to_string(BaselineFailure::kDedicatedPhase),
               "dedicated-phase");
  EXPECT_STREQ(to_string(BaselineFailure::kSharedPhase), "shared-phase");
}

TEST(LiFederatedTest, LowTasksPackByUtilization) {
  TaskSystem sys;
  sys.add(simple_task(5, 10, 10));  // u = 1/2
  sys.add(simple_task(5, 10, 10));
  sys.add(simple_task(5, 10, 10));
  // Three u = 1/2 tasks on 2 shared processors: fits (1/2+1/2 | 1/2).
  EXPECT_TRUE(li_federated_implicit(sys, 2).success);
  // On 1 processor: 3/2 > 1 → fails.
  EXPECT_FALSE(li_federated_implicit(sys, 1).success);
}

TEST(ConstrainedAdaptationTest, UsesDeadlineWindowAndDensity) {
  TaskSystem sys;
  std::array<Time, 4> branches{2, 2, 2, 2};
  // vol 10, len 4, D = 6 < T = 12: δ = 10/6 > 1 → high; n = ⌈6/2⌉ = 3.
  sys.add(DagTask(make_fork_join(1, branches, 1), 6, 12));
  sys.add(simple_task(2, 4, 16));   // δ = 1/2
  sys.add(simple_task(3, 6, 16));   // δ = 1/2
  auto r = li_federated_constrained_adaptation(sys, 4);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.dedicated_processors, 3);
  EXPECT_EQ(r.shared_processors, 1);  // 1/2 + 1/2 = 1 fits one processor
}

TEST(ConstrainedAdaptationTest, DensityPackingIsConservative) {
  TaskSystem sys;
  sys.add(simple_task(1, 1, 3));
  sys.add(simple_task(1, 2, 3));
  sys.add(simple_task(1, 3, 3));
  // Σδ = 1 + 1/2 + 1/3 > 1 → the density-based baseline needs 2 processors…
  EXPECT_FALSE(li_federated_constrained_adaptation(sys, 1).success);
  EXPECT_TRUE(li_federated_constrained_adaptation(sys, 2).success);
}

TEST(ConstrainedAdaptationTest, RejectsArbitraryDeadlines) {
  TaskSystem sys;
  sys.add(simple_task(1, 20, 10));
  EXPECT_THROW(li_federated_constrained_adaptation(sys, 4),
               ContractViolation);
}

}  // namespace
}  // namespace fedcons
