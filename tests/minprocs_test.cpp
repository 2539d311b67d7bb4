// Tests for procedure MINPROCS (paper, Figure 3).
#include "fedcons/federated/minprocs.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/gen/dag_gen.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

TEST(MinprocsTest, LowerBoundFormula) {
  // vol = 9, min(D,T) = 16 → ⌈9/16⌉ = 1.
  EXPECT_EQ(minprocs_lower_bound(make_paper_example_task()), 1);
  // vol = 30, D = 10 → ⌈3⌉ = 3.
  DagBuilder g;
  for (int i = 0; i < 30; ++i) g.add_vertex(1);
  DagTask wide(g.build(), 10, 100);
  EXPECT_EQ(minprocs_lower_bound(wide), 3);
}

TEST(MinprocsTest, PaperExampleNeedsOneProcessor) {
  // Low-density task: vol 9 ≤ D 16, even one processor meets the deadline.
  auto r = minprocs(make_paper_example_task(), 4);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->processors, 1);
  EXPECT_LE(r->sigma.makespan(), 16);
}

TEST(MinprocsTest, WideTaskNeedsExactlyItsParallelism) {
  // 6 independent unit jobs, D = 2: three processors pack them 2 deep.
  std::array<Time, 6> w{1, 1, 1, 1, 1, 1};
  DagTask t(make_independent(w), 2, 10);
  auto r = minprocs(t, 8);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->processors, 3);
  EXPECT_EQ(r->sigma.makespan(), 2);
}

TEST(MinprocsTest, FailsWhenBudgetTooSmall) {
  std::array<Time, 6> w{1, 1, 1, 1, 1, 1};
  DagTask t(make_independent(w), 2, 10);
  EXPECT_FALSE(minprocs(t, 2).has_value());
  EXPECT_FALSE(minprocs(t, 0).has_value());
}

TEST(MinprocsTest, InfeasibleCriticalPathFailsImmediately) {
  std::array<Time, 3> w{5, 5, 5};
  DagTask t(make_chain(w), 10, 20);  // len 15 > D 10
  EXPECT_FALSE(minprocs(t, 1000).has_value());
}

TEST(MinprocsTest, ChainNeedsOneProcessor) {
  std::array<Time, 3> w{5, 5, 5};
  DagTask t(make_chain(w), 15, 20);
  auto r = minprocs(t, 8);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->processors, 1);
  EXPECT_EQ(r->sigma.makespan(), 15);
}

TEST(MinprocsTest, SigmaValidatesAgainstGraph) {
  std::array<Time, 3> branches{7, 5, 3};
  DagTask t(make_fork_join(1, branches, 1), 12, 30);
  auto r = minprocs(t, 8);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->sigma.validate_against(t.graph()));
  EXPECT_LE(r->sigma.makespan(), t.deadline());
}

TEST(MinprocsTest, ScanStartsAtDensityCeiling) {
  // High-density task where ⌈δ⌉ already suffices: 8 unit jobs, D = 2:
  // δ = 4, and 4 processors give makespan 2.
  std::array<Time, 8> w{1, 1, 1, 1, 1, 1, 1, 1};
  DagTask t(make_independent(w), 2, 4);
  EXPECT_EQ(minprocs_lower_bound(t), 4);
  auto r = minprocs(t, 16);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->processors, 4);
}

// Property: over random DAG tasks, MINPROCS output is structurally valid,
// never below ⌈δ⌉, and "minimal" with respect to the LS makespan scan.
class MinprocsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinprocsPropertyTest, OutputsAreValidAndMinimal) {
  Rng rng(GetParam());
  LayeredDagParams params;
  params.max_width = 6;
  params.max_wcet = 12;
  for (int trial = 0; trial < 40; ++trial) {
    Dag g = generate_layered_dag(rng, params);
    // Deadline between len and vol keeps the instance interesting.
    Time deadline = rng.uniform_int(g.len(), g.vol());
    DagTask t(g, deadline, deadline + rng.uniform_int(0, 50));
    auto r = minprocs(t, 12);
    if (!r.has_value()) continue;
    EXPECT_GE(r->processors, minprocs_lower_bound(t));
    EXPECT_LE(r->sigma.makespan(), t.deadline());
    EXPECT_TRUE(r->sigma.validate_against(t.graph()));
    // Minimality within the scan: every smaller μ ≥ ⌈δ⌉ must overshoot D.
    for (int mu = minprocs_lower_bound(t); mu < r->processors; ++mu) {
      EXPECT_GT(list_schedule(t.graph(), mu).makespan(), t.deadline());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinprocsPropertyTest,
                         ::testing::Values(41u, 42u, 43u));

}  // namespace
}  // namespace fedcons
