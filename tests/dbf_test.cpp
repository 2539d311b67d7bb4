// Tests for demand bound functions: exact DBF, DBF*, its k-point refinement
// and slope breakpoints.
#include "fedcons/analysis/dbf.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

TEST(DbfTest, ZeroBeforeDeadline) {
  SporadicTask t(3, 7, 10);
  EXPECT_EQ(dbf(t, 0), 0);
  EXPECT_EQ(dbf(t, 6), 0);
  EXPECT_EQ(dbf(t, -5), 0);
}

TEST(DbfTest, StepsAtDeadlinePlusPeriods) {
  SporadicTask t(3, 7, 10);
  EXPECT_EQ(dbf(t, 7), 3);
  EXPECT_EQ(dbf(t, 16), 3);
  EXPECT_EQ(dbf(t, 17), 6);
  EXPECT_EQ(dbf(t, 26), 6);
  EXPECT_EQ(dbf(t, 27), 9);
}

TEST(DbfTest, ImplicitDeadlineForm) {
  SporadicTask t(2, 5, 5);
  EXPECT_EQ(dbf(t, 4), 0);
  EXPECT_EQ(dbf(t, 5), 2);
  EXPECT_EQ(dbf(t, 10), 4);
  EXPECT_EQ(dbf(t, 14), 4);
}

TEST(DbfApproxTest, ZeroBeforeDeadline) {
  SporadicTask t(3, 7, 10);
  EXPECT_TRUE(dbf_approx(t, 6).is_zero());
}

TEST(DbfApproxTest, ExactAtDeadline) {
  SporadicTask t(3, 7, 10);
  EXPECT_EQ(dbf_approx(t, 7), BigRational(3));
}

TEST(DbfApproxTest, LinearBetween) {
  SporadicTask t(3, 7, 10);
  // DBF*(t) = 3 + (3/10)(t − 7).
  EXPECT_EQ(dbf_approx(t, 17), BigRational(6));
  EXPECT_EQ(dbf_approx(t, 12), BigRational(3) + BigRational(3, 2));
}

// Property: DBF ≤ DBF* < DBF + C; both monotone in t; DBF* matches DBF at
// step points t = D + kT.
class DbfPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbfPropertyTest, ApproximationDominatesWithinWcet) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Time period = rng.uniform_int(2, 200);
    Time deadline = rng.uniform_int(1, period);
    Time wcet = rng.uniform_int(1, deadline);
    SporadicTask t(wcet, deadline, period);
    Time prev_exact = 0;
    BigRational prev_approx(0);
    for (Time x = 0; x <= 3 * period + deadline; ++x) {
      Time exact = dbf(t, x);
      BigRational approx = dbf_approx(t, x);
      EXPECT_LE(BigRational(exact), approx);
      EXPECT_LT(approx, BigRational(exact + wcet) + BigRational(1, 1000000));
      EXPECT_GE(exact, prev_exact);
      EXPECT_GE(approx, prev_approx);
      prev_exact = exact;
      prev_approx = approx;
    }
    // Coincidence at the step points.
    for (int k = 0; k < 3; ++k) {
      Time step = deadline + k * period;
      EXPECT_EQ(dbf_approx(t, step), BigRational(dbf(t, step)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbfPropertyTest,
                         ::testing::Values(5u, 6u, 7u));

TEST(DbfApproxKTest, OnePointMatchesDbfStar) {
  SporadicTask t(3, 7, 10);
  for (Time x = 0; x <= 60; ++x) {
    EXPECT_EQ(dbf_approx_k(t, x, 1), dbf_approx(t, x)) << "t=" << x;
  }
}

TEST(DbfApproxKTest, ExactWithinFirstKSteps) {
  SporadicTask t(3, 7, 10);
  // With 3 points the approximation is exact up to D + 2T = 27.
  for (Time x = 0; x < 27; ++x) {
    EXPECT_EQ(dbf_approx_k(t, x, 3), BigRational(dbf(t, x)));
  }
  // At the tail start it is still exact…
  EXPECT_EQ(dbf_approx_k(t, 27, 3), BigRational(9));
  // …and linear after: at 32, 9 + (3/10)·5 = 21/2.
  EXPECT_EQ(dbf_approx_k(t, 32, 3), BigRational(21, 2));
}

TEST(DbfApproxKTest, MonotoneInPointsAndAboveDbf) {
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    Time period = rng.uniform_int(2, 100);
    Time deadline = rng.uniform_int(1, period);
    Time wcet = rng.uniform_int(1, deadline);
    SporadicTask t(wcet, deadline, period);
    Time x = rng.uniform_int(0, 5 * period);
    BigRational prev = dbf_approx_k(t, x, 1);
    EXPECT_GE(prev, BigRational(dbf(t, x)));
    for (int k = 2; k <= 6; ++k) {
      BigRational cur = dbf_approx_k(t, x, k);
      EXPECT_LE(cur, prev) << "k=" << k;
      EXPECT_GE(cur, BigRational(dbf(t, x)));
      prev = cur;
    }
  }
}

TEST(DbfApproxKTest, RejectsBadPointCount) {
  SporadicTask t(1, 2, 3);
  EXPECT_THROW(dbf_approx_k(t, 5, 0), ContractViolation);
}

TEST(DbfBreakpointsTest, EnumeratesStepInstants) {
  std::vector<SporadicTask> tasks{SporadicTask(1, 3, 10),
                                  SporadicTask(2, 5, 10)};
  auto bps = dbf_approx_breakpoints(tasks, 2, 100);
  EXPECT_EQ(bps, (std::vector<Time>{3, 5, 13, 15}));
  auto capped = dbf_approx_breakpoints(tasks, 2, 14);
  EXPECT_EQ(capped, (std::vector<Time>{3, 5, 13}));
}

TEST(DbfBreakpointsTest, DeduplicatesSharedInstants) {
  std::vector<SporadicTask> tasks{SporadicTask(1, 5, 10),
                                  SporadicTask(2, 5, 10)};
  auto bps = dbf_approx_breakpoints(tasks, 1, 100);
  EXPECT_EQ(bps, (std::vector<Time>{5}));
}

TEST(TotalDbfTest, SumsExactDemands) {
  std::array<SporadicTask, 2> tasks{SporadicTask(2, 4, 10),
                                    SporadicTask(3, 5, 10)};
  EXPECT_EQ(total_dbf(tasks, 3), 0);
  EXPECT_EQ(total_dbf(tasks, 4), 2);
  EXPECT_EQ(total_dbf(tasks, 5), 5);
  EXPECT_EQ(total_dbf(tasks, 15), 10);
}

TEST(DbfSaturationTest, HugeDemandSaturatesInsteadOfWrapping) {
  // jobs · C overflows int64; the accumulation must pin at kTimeInfinity so
  // any `demand <= supply` comparison fails safe ("unschedulable by
  // saturation"), never wraps negative and passes.
  const Time huge = Time{1} << 50;
  SporadicTask t(huge, huge, 1);
  EXPECT_EQ(dbf(t, kTimeInfinity / 2), kTimeInfinity);
  // A sane instant is still exact.
  EXPECT_EQ(dbf(t, huge), huge);
}

TEST(DbfSaturationTest, TotalDemandSaturatesAcrossTasks) {
  const Time big = Time{1} << 61;  // 4 · big overflows int64 on its own
  std::array<SporadicTask, 4> tasks{
      SporadicTask(big, big, big * 2), SporadicTask(big, big, big * 2),
      SporadicTask(big, big, big * 2), SporadicTask(big, big, big * 2)};
  EXPECT_EQ(total_dbf(tasks, big), kTimeInfinity);
}

TEST(DbfSaturationTest, BreakpointsStopAtSaturation) {
  // Breakpoint enumeration over near-overflow parameters terminates and
  // never emits a wrapped (negative) instant: D + i·T points that saturate
  // drop out instead of aliasing into the horizon.
  const Time big = Time{1} << 60;
  std::array<SporadicTask, 1> tasks{SporadicTask(1, big, big)};
  for (Time bp : dbf_approx_breakpoints(tasks, 64, kTimeInfinity - 1)) {
    EXPECT_GT(bp, 0);
    EXPECT_LT(bp, kTimeInfinity);
  }
}

}  // namespace
}  // namespace fedcons
