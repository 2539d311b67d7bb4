// DBF* kernel suite (DESIGN.md §13).
//
// dbf_scan classifies demand lanes with a certified rounding-error margin,
// so verdicts stay exact while floating point only picks the route. These
// tests pin that at two levels:
//   * kernel level — dbf_scan classifies every lane of a fuzzed multi-lane
//     array exactly as the canonical op sequence of dbf_kernel.h, written
//     out here with volatile intermediates, does;
//   * certification level — a certain DBF* lane class (kFit / kReject) always
//     agrees with the exact rational comparison, audited at every aggregate
//     breakpoint ±2 (the band where slope changes make rounding most likely
//     to matter).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fedcons/analysis/dbf.h"
#include "fedcons/core/sequential_task.h"
#include "fedcons/simd/dbf_kernel.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

using simd::DbfCand;
using simd::LaneClass;

// ---------------------------------------------------------------------------
// Term builders
// ---------------------------------------------------------------------------

TEST(DbfTermTest, AffineTermMatchesDefinition) {
  // C=4, D=10, T=5: b = C/T, a = C − b·D, mag = C + b·D — computed through
  // volatile intermediates so this TU cannot FMA-contract what the kernel TU
  // deliberately computes contraction-free.
  const DbfCand cand = simd::dbf_affine_term(4, 10, 5);
  volatile double b = 4.0 / 5.0;
  volatile double bd = b * 10.0;
  volatile double a = 4.0 - bd;
  volatile double mag = 4.0 + bd;
  EXPECT_EQ(cand.b, b);
  EXPECT_EQ(cand.a, a);
  EXPECT_EQ(cand.mag, mag);
}

TEST(DbfTermTest, ConstantAndUtilTerms) {
  const DbfCand c = simd::dbf_constant_term(7);
  EXPECT_EQ(c.a, 7.0);
  EXPECT_EQ(c.b, 0.0);
  EXPECT_EQ(c.mag, 7.0);
  EXPECT_EQ(simd::util_term(1, 4), 0.25);
  EXPECT_EQ(simd::util_term(3, 2), 1.5);
}

TEST(DbfTermTest, OutOfRangeParametersArePoisoned) {
  const long long big = simd::kDbfMaxMagnitude + 1;
  EXPECT_TRUE(std::isinf(simd::dbf_affine_term(1, big, big).mag));
  EXPECT_TRUE(std::isinf(simd::dbf_affine_term(big, 1, 1).mag));
  EXPECT_TRUE(std::isinf(simd::dbf_constant_term(big).mag));
  EXPECT_TRUE(std::isinf(simd::util_term(big, 1)));
  EXPECT_TRUE(std::isinf(simd::util_term(1, big)));
}

// ---------------------------------------------------------------------------
// dbf_scan against the canonical per-lane sequence
// ---------------------------------------------------------------------------

/// Every lane's class as dbf_scan reports it over [0, n): the scan restarts
/// after each non-fit lane, and the lanes it passes over are kFit.
std::vector<LaneClass> full_scan(const std::vector<double>& bp,
                                 const std::vector<double>& A,
                                 const std::vector<double>& B,
                                 const std::vector<double>& M, DbfCand cand,
                                 double eps_n) {
  const int n = static_cast<int>(bp.size());
  std::vector<LaneClass> classes(bp.size(), LaneClass::kFit);
  int i = 0;
  while (i < n) {
    LaneClass cls = LaneClass::kFit;
    const int stop = simd::dbf_scan(bp.data(), A.data(), B.data(), M.data(),
                                    i, n, cand, eps_n, &cls);
    if (stop == n) break;
    classes[static_cast<std::size_t>(stop)] = cls;
    i = stop + 1;
  }
  return classes;
}

/// One lane through dbf_kernel.h's canonical sequence, each step a volatile
/// so this TU cannot FMA-contract or reorder what the kernel's
/// contraction-free TU computes.
LaneClass canonical_class(double bp, double A, double B, double M,
                          DbfCand cand, double eps_n) {
  volatile double t1 = A + cand.a;
  volatile double t2 = B + cand.b;
  volatile double t3 = t2 * bp;
  volatile double dem = t1 + t3;
  volatile double mag = M + cand.mag;
  mag = mag + std::fabs(t1);
  mag = mag + std::fabs(t3);
  volatile double err = eps_n * mag;
  volatile double hi = dem + err;
  if (hi <= bp) return LaneClass::kFit;
  volatile double lo = dem - err;
  return lo > bp ? LaneClass::kReject : LaneClass::kUncertain;
}

TEST(DbfScanTest, ScanMatchesCanonicalSequence) {
  Rng rng(0xd15f'a7c4u);
  int seen[3] = {0, 0, 0};
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 200));
    const DbfCand cand = simd::dbf_affine_term(
        rng.uniform_int(1, 100), rng.uniform_int(1, 500),
        rng.uniform_int(1, 500));
    const double eps_n = simd::kDbfEps * static_cast<double>(n + 16);
    std::vector<double> bp(static_cast<std::size_t>(n)),
        A(static_cast<std::size_t>(n)), B(static_cast<std::size_t>(n)),
        M(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < bp.size(); ++i) {
      const double t = static_cast<double>(rng.uniform_int(1, 1'000'000));
      bp[i] = t;
      const int mode = static_cast<int>(rng.uniform_int(0, 9));
      if (mode == 0 || mode == 2) {
        // B = −b makes t2 exactly 0, so the demand is t1 = A + a alone:
        // an exact tie (mode 0, kUncertain) or a demand k error margins
        // from bp with k in [−2, 2] (mode 2), which straddles every
        // class boundary the margin draws.
        const double k = mode == 0 ? 0.0 : rng.uniform_real(-2.0, 2.0);
        M[i] = t;
        B[i] = -cand.b;
        A[i] = t + k * eps_n * (2.0 * t + cand.mag) - cand.a;
      } else if (mode == 1) {
        // Poisoned magnitude → kUncertain.
        A[i] = t * 0.5;
        B[i] = 0.25;
        M[i] = std::numeric_limits<double>::infinity();
      } else {
        // Demand near bp: uniform in [0.8, 1.2]·bp split across A and B·bp.
        const double frac = rng.uniform_real(0.8, 1.2);
        const double split = rng.uniform01();
        A[i] = t * frac * split;
        B[i] = frac * (1.0 - split);
        M[i] = t * frac + t;
      }
    }

    const std::vector<LaneClass> got = full_scan(bp, A, B, M, cand, eps_n);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const LaneClass want = canonical_class(bp[i], A[i], B[i], M[i], cand,
                                             eps_n);
      EXPECT_EQ(got[i], want) << "round " << round << " lane " << i;
      ++seen[static_cast<int>(want)];
    }
  }
  // The fuzz must reach every class, or the comparison proves little.
  EXPECT_GT(seen[static_cast<int>(LaneClass::kFit)], 0);
  EXPECT_GT(seen[static_cast<int>(LaneClass::kReject)], 0);
  EXPECT_GT(seen[static_cast<int>(LaneClass::kUncertain)], 0);
}

// ---------------------------------------------------------------------------
// Certification audit: certain classes agree with exact rational comparison
// ---------------------------------------------------------------------------

/// DBF*(cand, bp) exactly: C + (C/T)·(bp − D) for the affine form (bp ≥ D),
/// the constant C for the paper-literal form.
BigRational exact_cand_term(const SporadicTask& t, Time bp, bool affine) {
  if (!affine) return BigRational(t.wcet);
  BigInt num = BigInt(t.wcet) * BigInt(t.period + (bp - t.deadline));
  return BigRational(std::move(num), BigInt(t.period));
}

/// Classify one breakpoint exactly as partition_state.cpp's probe does: gather
/// the aggregate's double prefix at bp, run the 1-lane kernel, return the
/// lane class.
LaneClass classify_one(const DbfStarAggregate& agg, Time bp, DbfCand cand) {
  const auto dds = agg.distinct_deadlines();
  const int k0 =
      static_cast<int>(std::upper_bound(dds.begin(), dds.end(), bp) -
                       dds.begin()) -
      1;
  double lane_bp = static_cast<double>(bp);
  double a = 0.0, b = 0.0, m = 0.0;
  if (k0 >= 0) {
    a = agg.soa_prefix_a()[static_cast<std::size_t>(k0)];
    b = agg.soa_prefix_b()[static_cast<std::size_t>(k0)];
    m = agg.soa_prefix_mag()[static_cast<std::size_t>(k0)];
  }
  if (bp < 0 || bp > simd::kDbfMaxMagnitude) {
    m = std::numeric_limits<double>::infinity();
  }
  const double eps_n = simd::kDbfEps * static_cast<double>(agg.size() + 16);
  LaneClass cls = LaneClass::kFit;
  const int stop =
      simd::dbf_scan(&lane_bp, &a, &b, &m, 0, 1, cand, eps_n, &cls);
  return stop == 1 ? LaneClass::kFit : cls;
}

TEST(DbfCertificationTest, CertainClassesAgreeWithExactAtEveryBreakpointBand) {
  Rng rng(0xbadd1u);
  int certain = 0, uncertain = 0;
  for (int round = 0; round < 60; ++round) {
    DbfStarAggregate agg;
    std::vector<SporadicTask> members;
    const int n = static_cast<int>(rng.uniform_int(1, 24));
    for (int i = 0; i < n; ++i) {
      const Time period = rng.uniform_int(2, 4000);
      const Time deadline = rng.uniform_int(1, period);
      const Time wcet = rng.uniform_int(1, deadline);
      members.emplace_back(wcet, deadline, period);
      agg.insert(members.back());
    }
    const Time cper = rng.uniform_int(2, 4000);
    const Time cdl = rng.uniform_int(1, cper);
    const SporadicTask cand_task(rng.uniform_int(1, cdl), cdl, cper);

    std::vector<Time> band;
    for (Time d : agg.distinct_deadlines()) {
      for (Time off = -2; off <= 2; ++off) band.push_back(d + off);
    }
    for (Time off = -2; off <= 2; ++off) band.push_back(cdl + off);

    for (bool affine : {true, false}) {
      const DbfCand cand =
          affine ? simd::dbf_affine_term(cand_task.wcet, cand_task.deadline,
                                         cand_task.period)
                 : simd::dbf_constant_term(cand_task.wcet);
      for (Time bp : band) {
        if (bp < (affine ? cdl : Time{0})) continue;
        const LaneClass cls = classify_one(agg, bp, cand);
        const BigRational exact =
            agg.sum_at_uncounted(bp) + exact_cand_term(cand_task, bp, affine);
        const bool fits_exactly = exact <= BigRational(bp);
        if (cls == LaneClass::kFit) {
          ++certain;
          EXPECT_TRUE(fits_exactly)
              << "kFit but exact demand exceeds bp=" << bp;
        } else if (cls == LaneClass::kReject) {
          ++certain;
          EXPECT_FALSE(fits_exactly)
              << "kReject but exact demand fits at bp=" << bp;
        } else {
          ++uncertain;
        }
      }
    }
  }
  // The kernel must actually decide things for well-scaled inputs — an
  // always-uncertain kernel would pass the agreement checks vacuously.
  EXPECT_GT(certain, uncertain * 10);
}

}  // namespace
}  // namespace fedcons
