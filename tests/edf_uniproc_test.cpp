// Tests for the exact uniprocessor EDF analysis: QPA, cross-checked against
// the direct processor-demand scan (reference::edf_schedulable_pdc).
#include "fedcons/analysis/edf_uniproc.h"

#include <gtest/gtest.h>

#include <vector>

#include "fedcons/analysis/dbf.h"
#include "fedcons/util/rng.h"
#include "reference/reference.h"

namespace fedcons {
namespace {

TEST(EdfUniprocTest, EmptySetSchedulable) {
  EXPECT_TRUE(reference::edf_schedulable_pdc({}).schedulable);
  EXPECT_TRUE(edf_schedulable_qpa({}).schedulable);
}

TEST(EdfUniprocTest, ImplicitDeadlineFullUtilization) {
  // EDF is optimal on one processor: U = 1 with implicit deadlines is
  // schedulable.
  std::vector<SporadicTask> tasks{SporadicTask(1, 2, 2),
                                  SporadicTask(2, 4, 4)};
  EXPECT_TRUE(reference::edf_schedulable_pdc(tasks).schedulable);
  EXPECT_TRUE(edf_schedulable_qpa(tasks).schedulable);
}

TEST(EdfUniprocTest, OverUtilizationRejected) {
  std::vector<SporadicTask> tasks{SporadicTask(3, 4, 4),
                                  SporadicTask(2, 4, 4)};
  EXPECT_FALSE(reference::edf_schedulable_pdc(tasks).schedulable);
  EXPECT_FALSE(edf_schedulable_qpa(tasks).schedulable);
}

TEST(EdfUniprocTest, ConstrainedDeadlinesCanFailBelowFullUtilization) {
  // Two tasks, each C=1, D=1, T=4: at t=1 demand is 2 > 1 although U = 1/2.
  std::vector<SporadicTask> tasks{SporadicTask(1, 1, 4),
                                  SporadicTask(1, 1, 4)};
  auto pdc = reference::edf_schedulable_pdc(tasks);
  EXPECT_FALSE(pdc.schedulable);
  ASSERT_TRUE(pdc.violation_instant.has_value());
  EXPECT_EQ(*pdc.violation_instant, 1);
  EXPECT_FALSE(edf_schedulable_qpa(tasks).schedulable);
}

TEST(EdfUniprocTest, ConstrainedSchedulableExample) {
  // C=2, D=4, T=8 and C=3, D=6, T=12: demand stays under t everywhere.
  std::vector<SporadicTask> tasks{SporadicTask(2, 4, 8),
                                  SporadicTask(3, 6, 12)};
  EXPECT_TRUE(reference::edf_schedulable_pdc(tasks).schedulable);
  EXPECT_TRUE(edf_schedulable_qpa(tasks).schedulable);
}

TEST(EdfUniprocTest, ViolationWitnessIsGenuine) {
  std::vector<SporadicTask> tasks{SporadicTask(2, 2, 5),
                                  SporadicTask(2, 3, 5)};
  auto r = reference::edf_schedulable_pdc(tasks);
  ASSERT_FALSE(r.schedulable);
  ASSERT_TRUE(r.violation_instant.has_value());
  EXPECT_GT(total_dbf(tasks, *r.violation_instant), *r.violation_instant);
}

TEST(EdfUniprocTest, ExactUtilizationBoundaryWithConstrainedDeadline) {
  // U = 1 exactly plus a constrained deadline that still fits.
  std::vector<SporadicTask> tasks{SporadicTask(1, 1, 2),
                                  SporadicTask(1, 2, 2)};
  // t=1: 1 ≤ 1; t=2: 2 ≤ 2; pattern repeats with slack 0 — schedulable.
  EXPECT_TRUE(reference::edf_schedulable_pdc(tasks).schedulable);
  EXPECT_TRUE(edf_schedulable_qpa(tasks).schedulable);
}

TEST(BusyPeriodTest, SimpleFixpoint) {
  // C=2,T=4 and C=2,T=6 → w: 4 → ⌈4/4⌉2+⌈4/6⌉2=4 → fixpoint 4.
  std::vector<SporadicTask> tasks{SporadicTask(2, 4, 4),
                                  SporadicTask(2, 6, 6)};
  EXPECT_EQ(busy_period(tasks), 4);
}

TEST(BusyPeriodTest, FullUtilizationMayDiverge) {
  std::vector<SporadicTask> tasks{SporadicTask(1, 1, 1)};
  // U = 1: w grows without a finite fixpoint below the iteration cap? No —
  // w=1: ⌈1/1⌉·1 = 1 is already a fixpoint here.
  EXPECT_EQ(busy_period(tasks), 1);
}

TEST(BusyPeriodTest, EmptyIsZero) { EXPECT_EQ(busy_period({}), 0); }

TEST(PdcBoundTest, FiniteForUtilizationBelowOne) {
  std::vector<SporadicTask> tasks{SporadicTask(1, 3, 10),
                                  SporadicTask(2, 5, 15)};
  Time bound = pdc_testing_bound(tasks);
  EXPECT_NE(bound, kTimeInfinity);
  EXPECT_GT(bound, 0);
}

// Cross-validation property: PDC and QPA agree on random constrained sets,
// and both agree with a brute-force scan of all instants up to the bound.
class EdfCrossValidationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdfCrossValidationTest, PdcEqualsQpa) {
  Rng rng(GetParam());
  for (int i = 0; i < 150; ++i) {
    std::vector<SporadicTask> tasks;
    int n = static_cast<int>(rng.uniform_int(1, 6));
    for (int j = 0; j < n; ++j) {
      Time period = rng.uniform_int(2, 60);
      Time deadline = rng.uniform_int(1, period);
      Time wcet = rng.uniform_int(1, deadline);
      tasks.emplace_back(wcet, deadline, period);
    }
    EXPECT_EQ(reference::edf_schedulable_pdc(tasks).schedulable,
              edf_schedulable_qpa(tasks).schedulable)
        << "disagreement on a random task set (seed " << GetParam()
        << ", trial " << i << ")";
  }
}

TEST_P(EdfCrossValidationTest, PdcEqualsBruteForce) {
  Rng rng(GetParam() ^ 0x1234);
  for (int i = 0; i < 60; ++i) {
    std::vector<SporadicTask> tasks;
    int n = static_cast<int>(rng.uniform_int(1, 4));
    BigRational u;
    for (int j = 0; j < n; ++j) {
      Time period = rng.uniform_int(2, 24);
      Time deadline = rng.uniform_int(1, period);
      Time wcet = rng.uniform_int(1, deadline);
      tasks.emplace_back(wcet, deadline, period);
      u += tasks.back().utilization();
    }
    bool brute = u <= BigRational(1);
    if (brute) {
      Time bound = pdc_testing_bound(tasks);
      ASSERT_NE(bound, kTimeInfinity);
      for (Time t = 1; t <= bound && brute; ++t) {
        if (total_dbf(tasks, t) > t) brute = false;
      }
    }
    EXPECT_EQ(reference::edf_schedulable_pdc(tasks).schedulable, brute);
  }
}

TEST_P(EdfCrossValidationTest, PdcEqualsQpaOnArbitraryDeadlines) {
  // The PDC/QPA theory covers D > T as well; cross-validate there too
  // (the partitioned path of the arbitrary-deadline extension relies on it).
  Rng rng(GetParam() ^ 0x7777);
  for (int i = 0; i < 100; ++i) {
    std::vector<SporadicTask> tasks;
    int n = static_cast<int>(rng.uniform_int(1, 5));
    for (int j = 0; j < n; ++j) {
      Time period = rng.uniform_int(2, 40);
      Time deadline = rng.bernoulli(0.5) ? rng.uniform_int(period, 3 * period)
                                         : rng.uniform_int(1, period);
      Time wcet = rng.uniform_int(1, std::min(deadline, period));
      tasks.emplace_back(wcet, deadline, period);
    }
    EXPECT_EQ(reference::edf_schedulable_pdc(tasks).schedulable,
              edf_schedulable_qpa(tasks).schedulable)
        << "disagreement on an arbitrary-deadline set (seed " << GetParam()
        << ", trial " << i << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfCrossValidationTest,
                         ::testing::Values(101u, 202u, 303u, 404u));

TEST(EdfSaturationTest, OverflowingDeadlinePointsSaturateNotWrap) {
  // Two tasks with D and T both near 2^62: the scan's next deadline point
  // D + T exceeds int64 and must saturate to kTimeInfinity (dropping out of
  // the heap) rather than wrap negative, re-enter the scan, and loop. The
  // set is genuinely unschedulable at its first deadline point — the verdict
  // must say so with a positive witness, not crash or hang.
  const Time big = Time{1} << 62;
  std::vector<SporadicTask> tasks{SporadicTask(big / 2, big - 1, big + 8),
                                  SporadicTask(big / 2, big - 1, big + 8)};
  const EdfResult pdc = reference::edf_schedulable_pdc(tasks);
  EXPECT_FALSE(pdc.schedulable);
  ASSERT_TRUE(pdc.violation_instant.has_value());
  EXPECT_EQ(*pdc.violation_instant, big - 1);
  // QPA stays guarded on the same inputs and agrees on the verdict.
  EXPECT_FALSE(edf_schedulable_qpa(tasks).schedulable);
}

}  // namespace
}  // namespace fedcons
