// Backend-equivalence suite for the data-parallel analysis core (DESIGN.md
// §13).
//
// The dispatch contract says every kernel is a pure function of its inputs,
// independent of the backend that computed it. These tests pin that contract
// at three levels:
//   * kernel level — scalar and AVX2 variants of dbf_scan produce
//     bit-identical outputs on identical inputs (fuzzed);
//   * certification level — a certain DBF* lane class (kFit / kReject) always
//     agrees with the exact rational comparison, audited at every aggregate
//     breakpoint ±2 (the band where slope changes make rounding most likely
//     to matter);
//   * verdict level — PARTITION runs forced onto each backend produce
//     identical results and identical perf-counter deltas.
// Plus the dispatcher itself: FEDCONS_FORCE_BACKEND and force_backend() pins
// are honored and reversible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "fedcons/analysis/dbf.h"
#include "fedcons/core/sequential_task.h"
#include "fedcons/federated/partition.h"
#include "fedcons/simd/dbf_kernel.h"
#include "fedcons/simd/dispatch.h"
#include "fedcons/util/perf_counters.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

using simd::DbfCand;
using simd::LaneClass;
using simd::SimdBackend;

/// Restores the dispatcher (pin dropped, FEDCONS_FORCE_BACKEND restored to
/// its pre-test value) no matter how a test exits. The forced-backend smoke
/// runs execute this whole binary with the variable set, so restoring the
/// exact prior value — not just unsetting — keeps those runs honest.
class DispatchGuard {
 public:
  DispatchGuard() {
    const char* v = std::getenv("FEDCONS_FORCE_BACKEND");
    if (v != nullptr) saved_ = v;
  }
  ~DispatchGuard() {
    if (saved_.has_value()) {
      ::setenv("FEDCONS_FORCE_BACKEND", saved_->c_str(), 1);
    } else {
      ::unsetenv("FEDCONS_FORCE_BACKEND");
    }
    simd::force_backend(std::nullopt);
  }

 private:
  std::optional<std::string> saved_;
};

SimdBackend cpu_default_backend() {
  return simd::backend_supported(SimdBackend::kAvx2) ? SimdBackend::kAvx2
                                                     : SimdBackend::kScalar;
}

TEST(DispatchTest, EnvOverrideHonored) {
  DispatchGuard guard;
  ::setenv("FEDCONS_FORCE_BACKEND", "scalar", 1);
  simd::force_backend(std::nullopt);  // drop any pin; re-resolve from env
  EXPECT_EQ(simd::active_backend(), SimdBackend::kScalar);

  ::setenv("FEDCONS_FORCE_BACKEND", "avx2", 1);
  simd::force_backend(std::nullopt);
  // Forcing avx2 on a CPU without it falls back to scalar (with a warning).
  EXPECT_EQ(simd::active_backend(), cpu_default_backend());

  ::setenv("FEDCONS_FORCE_BACKEND", "sse9", 1);
  simd::force_backend(std::nullopt);
  EXPECT_EQ(simd::active_backend(), cpu_default_backend());

  ::unsetenv("FEDCONS_FORCE_BACKEND");
  simd::force_backend(std::nullopt);
  EXPECT_EQ(simd::active_backend(), cpu_default_backend());
}

TEST(DispatchTest, ForcedPinBeatsEnvUntilDropped) {
  DispatchGuard guard;
  ::setenv("FEDCONS_FORCE_BACKEND", "scalar", 1);
  simd::force_backend(std::nullopt);
  ASSERT_EQ(simd::active_backend(), SimdBackend::kScalar);

  const SimdBackend other = cpu_default_backend();
  simd::force_backend(other);
  EXPECT_EQ(simd::active_backend(), other);  // pin wins over env

  simd::force_backend(std::nullopt);  // drop → env wins again
  EXPECT_EQ(simd::active_backend(), SimdBackend::kScalar);
}

TEST(DispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::backend_supported(SimdBackend::kScalar));
  EXPECT_STREQ(simd::to_string(SimdBackend::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(SimdBackend::kAvx2), "avx2");
}

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
// Scalar vs AVX2 dbf_scan: bit-identical classification
// ---------------------------------------------------------------------------

struct ScanStep {
  int stop;
  LaneClass cls;
};

/// Drive one backend over [0, n), restarting after every non-fit lane, so
/// every lane's classification is observed (not just the first stop).
template <typename ScanFn>
std::vector<ScanStep> full_scan(ScanFn scan, const std::vector<double>& bp,
                                const std::vector<double>& A,
                                const std::vector<double>& B,
                                const std::vector<double>& M, DbfCand cand,
                                double eps_n) {
  std::vector<ScanStep> steps;
  const int n = static_cast<int>(bp.size());
  int i = 0;
  while (i < n) {
    LaneClass cls = LaneClass::kFit;
    const int stop =
        scan(bp.data(), A.data(), B.data(), M.data(), i, n, cand, eps_n, &cls);
    steps.push_back({stop, cls});
    if (stop == n) break;
    i = stop + 1;
  }
  return steps;
}

TEST(DbfScanTest, BackendsClassifyBitIdentically) {
  if (!simd::backend_supported(SimdBackend::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  Rng rng(0xd15f'a7c4u);
  for (int round = 0; round < 40; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, 200));
    std::vector<double> bp(static_cast<std::size_t>(n)),
        A(static_cast<std::size_t>(n)), B(static_cast<std::size_t>(n)),
        M(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double t = static_cast<double>(rng.uniform_int(1, 1'000'000));
      bp[static_cast<std::size_t>(i)] = t;
      const int mode = static_cast<int>(rng.uniform_int(0, 9));
      if (mode == 0) {
        // Exact tie: demand == bp → must classify kUncertain on both.
        A[static_cast<std::size_t>(i)] = t;
        B[static_cast<std::size_t>(i)] = 0.0;
        M[static_cast<std::size_t>(i)] = t;
      } else if (mode == 1) {
        // Poisoned magnitude → kUncertain on both.
        A[static_cast<std::size_t>(i)] = t * 0.5;
        B[static_cast<std::size_t>(i)] = 0.25;
        M[static_cast<std::size_t>(i)] =
            std::numeric_limits<double>::infinity();
      } else {
        // Demand near bp: uniform in [0.8, 1.2]·bp split across A and B·bp.
        const double frac = rng.uniform_real(0.8, 1.2);
        const double split = rng.uniform01();
        A[static_cast<std::size_t>(i)] = t * frac * split;
        B[static_cast<std::size_t>(i)] = frac * (1.0 - split);
        M[static_cast<std::size_t>(i)] = t * frac + t;
      }
    }
    const DbfCand cand = simd::dbf_affine_term(
        rng.uniform_int(1, 100), rng.uniform_int(1, 500),
        rng.uniform_int(1, 500));
    const double eps_n = simd::kDbfEps * static_cast<double>(n + 16);

    const auto scalar = full_scan(simd::detail::dbf_scan_scalar, bp, A, B, M,
                                  cand, eps_n);
    const auto avx2 =
        full_scan(simd::detail::dbf_scan_avx2, bp, A, B, M, cand, eps_n);
    ASSERT_EQ(scalar.size(), avx2.size()) << "round " << round;
    for (std::size_t s = 0; s < scalar.size(); ++s) {
      EXPECT_EQ(scalar[s].stop, avx2[s].stop) << "round " << round;
      EXPECT_EQ(scalar[s].cls, avx2[s].cls) << "round " << round;
    }

    // The dispatched entry point follows whichever backend is pinned.
    DispatchGuard guard;
    for (SimdBackend b : {SimdBackend::kScalar, SimdBackend::kAvx2}) {
      simd::force_backend(b);
      const auto got =
          full_scan(simd::dbf_scan, bp, A, B, M, cand, eps_n);
      ASSERT_EQ(got.size(), scalar.size());
      for (std::size_t s = 0; s < got.size(); ++s) {
        EXPECT_EQ(got[s].stop, scalar[s].stop);
        EXPECT_EQ(got[s].cls, scalar[s].cls);
      }
    }
  }
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

// ---------------------------------------------------------------------------
// Verdict-level sweep: PARTITION under each forced backend
// ---------------------------------------------------------------------------

std::vector<SporadicTask> random_sequential_tasks(Rng& rng, int n) {
  std::vector<SporadicTask> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Time period = rng.uniform_int(5, 2000);
    const Time deadline = rng.uniform_int(2, period);
    const Time wcet = rng.uniform_int(1, std::max<Time>(1, deadline / 2));
    tasks.emplace_back(wcet, deadline, period);
  }
  return tasks;
}

TEST(BackendSweepTest, PartitionVerdictsAndCountersInvariant) {
  DispatchGuard guard;
  std::vector<SimdBackend> backends{SimdBackend::kScalar};
  if (simd::backend_supported(SimdBackend::kAvx2)) {
    backends.push_back(SimdBackend::kAvx2);
  }
  for (PartitionVariant variant :
       {PartitionVariant::kFull, PartitionVariant::kPaperLiteral}) {
    Rng rng(0x5eed'0000u + static_cast<std::uint64_t>(variant));
    for (int trial = 0; trial < 40; ++trial) {
      const auto tasks =
          random_sequential_tasks(rng, static_cast<int>(rng.uniform_int(1, 20)));
      const int m = static_cast<int>(rng.uniform_int(1, 6));
      PartitionOptions options;
      options.variant = variant;

      std::optional<PartitionResult> first;
      std::optional<PerfCounters> first_delta;
      for (SimdBackend b : backends) {
        simd::force_backend(b);
        const PerfCounters before = perf_counters();
        const PartitionResult r = partition_tasks(tasks, m, options);
        const PerfCounters delta = perf_counters() - before;
        if (!first.has_value()) {
          first = r;
          first_delta = delta;
          continue;
        }
        EXPECT_EQ(r.success, first->success) << "trial " << trial;
        EXPECT_EQ(r.assignment, first->assignment) << "trial " << trial;
        EXPECT_EQ(r.failed_task, first->failed_task) << "trial " << trial;
        EXPECT_EQ(delta, *first_delta)
            << "perf-counter delta diverged on trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace fedcons
