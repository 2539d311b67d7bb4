// Tests for the exact branch-and-bound makespan solver, including the
// empirical face of Lemma 1: LS/OPT never exceeds 2 − 1/m.
#include "fedcons/listsched/optimal_makespan.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/gen/dag_gen.h"
#include "fedcons/listsched/anomaly.h"
#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

TEST(OptimalMakespanTest, SingleVertex) {
  auto r = optimal_makespan(DagBuilder{}.vertex(7).build(), 3);
  EXPECT_EQ(r.makespan, 7);
  EXPECT_TRUE(r.exact);
}

TEST(OptimalMakespanTest, ChainEqualsVolume) {
  std::array<Time, 4> w{2, 5, 1, 4};
  Dag g = make_chain(w);
  EXPECT_EQ(optimal_makespan(g, 1).makespan, 12);
  EXPECT_EQ(optimal_makespan(g, 4).makespan, 12);
}

TEST(OptimalMakespanTest, IndependentJobsPackOptimally) {
  // {3,3,2,2,2} on 2 machines: OPT = 6 (3+3 | 2+2+2); vertex-order LS gets 7.
  std::array<Time, 5> w{3, 3, 2, 2, 2};
  Dag g = make_independent(w);
  EXPECT_EQ(list_schedule(g, 2).makespan(), 7);
  auto r = optimal_makespan(g, 2);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.makespan, 6);
}

TEST(OptimalMakespanTest, ForkJoinUsesParallelism) {
  std::array<Time, 3> branches{4, 4, 4};
  Dag g = make_fork_join(1, branches, 1);
  EXPECT_EQ(optimal_makespan(g, 3).makespan, 6);   // 1 + 4 + 1
  EXPECT_EQ(optimal_makespan(g, 2).makespan, 10);  // 1 + (4+4 | 4) + 1
  EXPECT_EQ(optimal_makespan(g, 1).makespan, 14);  // vol
}

TEST(OptimalMakespanTest, GrahamInstanceOptimum) {
  // The classic 9-job instance: LS achieves 12 on 3 machines; the optimum
  // is also 12 (T9 (9 units) must follow T1 (3 units): 3 + 9 = 12 = len).
  AnomalyInstance inst = make_graham_anomaly_instance();
  auto r = optimal_makespan(inst.dag, inst.processors);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.makespan, 12);
}

TEST(OptimalMakespanTest, ValidatesArguments) {
  EXPECT_THROW(optimal_makespan(Dag{}, 1), ContractViolation);
  EXPECT_THROW(optimal_makespan(DagBuilder{}.vertex(1).build(), 0),
               ContractViolation);
  DagBuilder big;
  for (int i = 0; i < 21; ++i) big.add_vertex(1);
  EXPECT_THROW(optimal_makespan(big.build(), 2), ContractViolation);
}

TEST(OptimalMakespanTest, BudgetExhaustionIsReported) {
  Rng rng(9);
  LayeredDagParams p;
  p.min_layers = 3;
  p.max_layers = 3;
  p.min_width = 4;
  p.max_width = 4;
  Dag g = generate_layered_dag(rng, p);
  auto r = optimal_makespan(g, 2, /*node_budget=*/3);
  EXPECT_FALSE(r.exact);
  // Incumbent still valid (it is an LS makespan).
  EXPECT_GE(r.makespan, makespan_lower_bound(g, 2));
}

// Property battery over random small DAGs.
class OptimalMakespanPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(OptimalMakespanPropertyTest, BoundsAndLemmaOne) {
  auto [seed, m] = GetParam();
  Rng rng(seed);
  LayeredDagParams p;
  p.min_layers = 2;
  p.max_layers = 4;
  p.min_width = 1;
  p.max_width = 3;
  p.max_wcet = 9;
  for (int trial = 0; trial < 25; ++trial) {
    Dag g = generate_layered_dag(rng, p);
    if (g.num_vertices() > 12) continue;
    auto opt = optimal_makespan(g, m);
    if (!opt.exact) continue;
    // OPT respects the universal lower bound and is ≤ every LS run.
    EXPECT_GE(opt.makespan, makespan_lower_bound(g, m));
    for (ListPolicy policy :
         {ListPolicy::kVertexOrder, ListPolicy::kCriticalPath,
          ListPolicy::kLongestWcet}) {
      Time ls = list_schedule(g, m, policy).makespan();
      EXPECT_LE(opt.makespan, ls);
      // Lemma 1's empirical face: LS ≤ (2 − 1/m)·OPT_preemptive ≤
      // (2 − 1/m)·OPT_nonpreemptive. Integer-safe: m·LS ≤ (2m−1)·OPT.
      EXPECT_LE(static_cast<long long>(m) * ls,
                static_cast<long long>(2 * m - 1) * opt.makespan)
          << "policy " << to_string(policy) << " m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OptimalMakespanPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u), ::testing::Values(2, 3)));

}  // namespace
}  // namespace fedcons
