// Equivalence suite for the bound-guided MINPROCS fast path (DESIGN.md §7).
//
// The pruned, workspace-backed scan must be observationally identical to the
// seed scan (reference::minprocs, tests/reference/): same μ, bit-identical
// template schedule, same rejections, and the same number of LS probes (the
// Graham-bound cap only removes candidates the scan can never reach). These
// tests drive both paths over ~200 random DAG tasks per policy and compare
// everything, including the deterministic perf-counter deltas.
#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/federated/minprocs.h"
#include "fedcons/gen/dag_gen.h"
#include "fedcons/util/perf_counters.h"
#include "fedcons/util/rng.h"
#include "reference/reference.h"

namespace fedcons {
namespace {

constexpr std::array<ListPolicy, 3> kPolicies{ListPolicy::kVertexOrder,
                                              ListPolicy::kCriticalPath,
                                              ListPolicy::kLongestWcet};

void expect_bit_identical(const TemplateSchedule& a, const TemplateSchedule& b) {
  EXPECT_EQ(a.makespan(), b.makespan());
  ASSERT_EQ(a.num_jobs(), b.num_jobs());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].vertex, b.jobs()[i].vertex);
    EXPECT_EQ(a.jobs()[i].processor, b.jobs()[i].processor);
    EXPECT_EQ(a.jobs()[i].start, b.jobs()[i].start);
    EXPECT_EQ(a.jobs()[i].finish, b.jobs()[i].finish);
  }
}

/// One random DAG task whose deadline lands in [len, vol] so the MINPROCS
/// scan actually has to probe (below len: trivial reject; above vol: μ = ⌈δ⌉
/// immediately fits).
DagTask random_task(Rng& rng) {
  LayeredDagParams params;
  params.max_layers = 6;
  params.max_width = 6;
  params.max_wcet = 12;
  Dag g = generate_layered_dag(rng, params);
  const Time deadline = rng.uniform_int(g.len(), g.vol());
  const Time period = deadline + rng.uniform_int(0, 50);
  return DagTask(std::move(g), deadline, period);
}

class MinprocsEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinprocsEquivalenceTest, PrunedScanMatchesReferenceBitForBit) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const DagTask t = random_task(rng);
    const int budget = static_cast<int>(rng.uniform_int(0, 16));
    for (ListPolicy policy : kPolicies) {
      const PerfCounters before_ref = perf_counters();
      auto ref = reference::minprocs(t, budget, policy);
      const PerfCounters ref_delta = perf_counters() - before_ref;

      const PerfCounters before_opt = perf_counters();
      auto opt = minprocs(t, budget, policy);
      const PerfCounters opt_delta = perf_counters() - before_opt;

      ASSERT_EQ(ref.has_value(), opt.has_value())
          << "verdict diverged (budget " << budget << ")";
      if (ref.has_value()) {
        EXPECT_EQ(ref->processors, opt->processors);
        expect_bit_identical(ref->sigma, opt->sigma);
      }
      // The cap never changes which probes run — only which candidates the
      // worst case could have reached — so probe counters match exactly.
      EXPECT_EQ(ref_delta.minprocs_scan_iterations,
                opt_delta.minprocs_scan_iterations);
      EXPECT_EQ(ref_delta.ls_invocations, opt_delta.ls_invocations);
      // The reference path never prunes.
      EXPECT_EQ(ref_delta.ls_probes_pruned, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinprocsEquivalenceTest,
                         ::testing::Values(101u, 102u, 103u, 104u));

TEST(MinprocsScanCapTest, CapCertifiesAndIsMinimal) {
  Rng rng(0xcafeu);
  LayeredDagParams params;
  params.max_width = 6;
  params.max_wcet = 12;
  for (int trial = 0; trial < 100; ++trial) {
    Dag g = generate_layered_dag(rng, params);
    const Time deadline = rng.uniform_int(g.len(), g.vol());
    DagTask t(g, deadline, deadline + rng.uniform_int(0, 50));
    const Time cap = minprocs_scan_cap(t);
    const int lb = minprocs_lower_bound(t);
    ASSERT_GE(cap, lb);
    if (cap > 1'000'000) continue;  // graham_bound takes an int budget
    const auto cap_i = static_cast<int>(cap);
    // Graham's bound certifies a fit at the cap…
    EXPECT_LE(graham_bound(t.graph(), cap_i), t.deadline());
    // …and, unless the density floor forced the cap up, at nothing smaller.
    if (cap > lb) {
      EXPECT_GT(graham_bound(t.graph(), cap_i - 1), t.deadline());
    }
  }
}

TEST(MinprocsScanCapTest, InfeasibleCriticalPathYieldsZero) {
  std::array<Time, 3> w{5, 5, 5};
  DagTask t(make_chain(w), 10, 20);  // len 15 > D 10
  EXPECT_EQ(minprocs_scan_cap(t), 0);
}

TEST(MinprocsScanCapTest, ProbeAtTheCapAlwaysFits) {
  // The pruning soundness argument in one test: LS makespan ≤ graham_bound,
  // so the probe at the cap can never miss the deadline.
  Rng rng(0xbeefu);
  LayeredDagParams params;
  params.max_wcet = 10;
  for (int trial = 0; trial < 50; ++trial) {
    Dag g = generate_layered_dag(rng, params);
    const Time deadline = rng.uniform_int(g.len(), g.vol());
    DagTask t(g, deadline, deadline);
    const Time cap = minprocs_scan_cap(t);
    if (cap > 64) continue;
    const auto cap_i = static_cast<int>(cap);
    for (ListPolicy policy : kPolicies) {
      EXPECT_LE(list_schedule(t.graph(), cap_i, policy).makespan(),
                t.deadline());
    }
  }
}

TEST(MinprocsScanCapTest, PruningCounterAccountsRemovedCandidates) {
  // Wide-but-tight task: ⌈δ⌉ small, cap well below a large budget.
  std::array<Time, 6> w{1, 1, 1, 1, 1, 1};
  DagTask t(make_independent(w), 2, 10);  // vol 6, len 1, D 2 → cap = ⌈6/2⌉=3
  EXPECT_EQ(minprocs_scan_cap(t), 3);
  const PerfCounters before = perf_counters();
  auto r = minprocs(t, 100);
  const PerfCounters delta = perf_counters() - before;
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->processors, 3);
  EXPECT_EQ(delta.ls_probes_pruned, 97u);  // candidates 4..100 eliminated
}

}  // namespace
}  // namespace fedcons
