// Tests for the arbitrary-deadline federated extension (paper §V future
// work; see federated/arbitrary.h for the soundness arguments).
#include "fedcons/federated/arbitrary.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/sim/cluster_sim.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

/// An arbitrary-deadline heavy task: chain with len > T but len ≤ D.
DagTask overlapping_task() {
  std::array<Time, 3> w{4, 4, 4};  // len = vol = 12
  return DagTask(make_chain(w), /*deadline=*/15, /*period=*/5,
                 "overlapping-chain");
}

TEST(ArbitraryFedTest, StrategyNames) {
  EXPECT_STREQ(to_string(ArbitraryStrategy::kClampToPeriod),
               "clamp-to-period");
  EXPECT_STREQ(to_string(ArbitraryStrategy::kPipelined), "pipelined");
}

TEST(ArbitraryFedTest, ConstrainedSystemsDegenerateToFedcons) {
  TaskSystem sys;
  sys.add(make_paper_example_task());
  sys.add(simple_task(2, 10, 20));
  auto arb = arbitrary_federated_schedule(sys, 2);
  ASSERT_TRUE(arb.success);
  for (const auto& c : arb.clusters) EXPECT_EQ(c.instances, 1);
  EXPECT_TRUE(fedcons_schedulable(sys, 2));
}

TEST(ArbitraryFedTest, PipelinedHandlesDeadlineBeyondPeriod) {
  // The overlapping chain: one dag-job takes len = 12 > T = 5, so up to
  // three dag-jobs are live at once. δ = 12/min(15,5) = 2.4 → high-density.
  // Pipelined: μ = 1 (chain), L = 12, k = ⌈12/5⌉ = 3 instances.
  TaskSystem sys;
  sys.add(overlapping_task());
  auto arb = arbitrary_federated_schedule(sys, 4,
                                          ArbitraryStrategy::kPipelined);
  ASSERT_TRUE(arb.success) << arb.describe(sys);
  ASSERT_EQ(arb.clusters.size(), 1u);
  EXPECT_EQ(arb.clusters[0].processors_per_instance, 1);
  EXPECT_EQ(arb.clusters[0].instances, 3);
  EXPECT_EQ(arb.clusters[0].total_processors(), 3);
}

TEST(ArbitraryFedTest, ClampRejectsWhatPipelineAccepts) {
  // Clamping to D' = T = 5 makes the chain infeasible (len 12 > 5): the
  // clamped strategy fails at any m, demonstrating the slack it wastes.
  TaskSystem sys;
  sys.add(overlapping_task());
  EXPECT_FALSE(
      arbitrary_federated_schedulable(sys, 64,
                                      ArbitraryStrategy::kClampToPeriod));
  EXPECT_TRUE(arbitrary_federated_schedulable(
      sys, 3, ArbitraryStrategy::kPipelined));
}

TEST(ArbitraryFedTest, FailsWhenBudgetTooSmall) {
  TaskSystem sys;
  sys.add(overlapping_task());  // needs 3 processors pipelined
  auto r = arbitrary_federated_schedule(sys, 2,
                                        ArbitraryStrategy::kPipelined);
  EXPECT_FALSE(r.success);
  ASSERT_TRUE(r.failed_task.has_value());
  EXPECT_EQ(*r.failed_task, 0u);
}

TEST(ArbitraryFedTest, InfeasibleCriticalPathRejected) {
  std::array<Time, 3> w{10, 10, 10};
  TaskSystem sys;
  sys.add(DagTask(make_chain(w), 20, 5));  // len 30 > D 20
  EXPECT_FALSE(arbitrary_federated_schedulable(sys, 64));
}

TEST(ArbitraryFedTest, MixedSystemWithLowDensityTail) {
  TaskSystem sys;
  sys.add(overlapping_task());            // 3 dedicated processors
  sys.add(simple_task(2, 30, 20));        // low density (δ = 2/20), D > T
  sys.add(simple_task(3, 12, 16));        // constrained low
  auto arb = arbitrary_federated_schedule(sys, 5);
  ASSERT_TRUE(arb.success) << arb.describe(sys);
  EXPECT_EQ(arb.shared_processors, 2);
  std::size_t shared = 0;
  for (const auto& p : arb.shared_assignment) shared += p.size();
  EXPECT_EQ(shared, 2u);
}

TEST(ArbitraryFedTest, DescribeMentionsInstances) {
  TaskSystem sys;
  sys.add(overlapping_task());
  auto arb = arbitrary_federated_schedule(sys, 4);
  EXPECT_NE(arb.describe(sys).find("3 instance(s)"), std::string::npos);
}

TEST(PipelinedSimTest, NoMissesAndNoOverlap) {
  TaskSystem sys;
  sys.add(overlapping_task());
  auto arb = arbitrary_federated_schedule(sys, 4);
  ASSERT_TRUE(arb.success);
  const auto& cluster = arb.clusters[0];
  SimConfig cfg;
  cfg.horizon = 50000;
  cfg.release = ReleaseModel::kSporadic;  // and thus also periodic-legal
  cfg.jitter_frac = 0.4;
  cfg.exec = ExecModel::kUniform;
  cfg.exec_lo = 0.5;
  Rng rng(5);
  auto releases = generate_releases(sys[0], cfg, rng);
  // Throws on overlap; returns stats otherwise.
  SimStats s = simulate_pipelined_cluster(sys[0], cluster.sigma,
                                          cluster.instances, releases, cfg);
  EXPECT_GT(s.jobs_released, 1000u);
  EXPECT_EQ(s.deadline_misses, 0u);
}

TEST(PipelinedSimTest, DetectsUnderProvisionedInstances) {
  // Deliberately run with ONE instance: back-to-back periodic releases
  // overlap on the single chain processor and the validator must throw.
  TaskSystem sys;
  sys.add(overlapping_task());
  auto arb = arbitrary_federated_schedule(sys, 4);
  ASSERT_TRUE(arb.success);
  SimConfig cfg;
  cfg.horizon = 2000;
  Rng rng(6);
  auto releases = generate_releases(sys[0], cfg, rng);
  EXPECT_THROW(simulate_pipelined_cluster(sys[0], arb.clusters[0].sigma,
                                          /*instances=*/1, releases, cfg),
               ContractViolation);
}

// Property: accepted arbitrary-deadline systems simulate miss-free, and the
// pipelined strategy accepts everything the clamped strategy accepts.
class ArbitraryFedPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArbitraryFedPropertyTest, PipelinedDominatesClampedInAggregate) {
  // Near-domination: pipelined uses no more cluster processors per task and
  // partitions with the looser original deadlines; only bin-packing order
  // anomalies could flip an individual instance, so we assert the aggregate.
  Rng rng(GetParam());
  int clamped_count = 0, pipelined_count = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // Arbitrary-deadline generator: start from a constrained draw, then
    // stretch some deadlines past the period.
    TaskSetParams params;
    params.num_tasks = 6;
    params.total_utilization = 2.0;
    params.utilization_cap = 3.0;
    Rng sys_rng = rng.split();
    TaskSystem base = generate_task_system(sys_rng, params);
    TaskSystem sys;
    for (const auto& t : base) {
      Time d = t.deadline();
      if (sys_rng.bernoulli(0.4)) {
        d = checked_mul(t.deadline(), sys_rng.uniform_int(2, 3));
      }
      sys.add(DagTask(t.graph(), d, t.period(), t.name()));
    }
    if (arbitrary_federated_schedulable(sys, 6,
                                        ArbitraryStrategy::kClampToPeriod)) {
      ++clamped_count;
    }
    if (arbitrary_federated_schedulable(sys, 6,
                                        ArbitraryStrategy::kPipelined)) {
      ++pipelined_count;
    }
  }
  EXPECT_GE(pipelined_count, clamped_count);
}

TEST_P(ArbitraryFedPropertyTest, AcceptedClustersSimulateMissFree) {
  Rng rng(GetParam() ^ 0xabc);
  SimConfig cfg;
  cfg.horizon = 20000;
  cfg.release = ReleaseModel::kSporadic;
  cfg.exec = ExecModel::kUniform;
  int simulated = 0;
  for (int trial = 0; trial < 30; ++trial) {
    TaskSetParams params;
    params.num_tasks = 4;
    params.total_utilization = 2.5;
    params.utilization_cap = 3.0;
    params.period_min = 20;
    params.period_max = 500;
    Rng sys_rng = rng.split();
    TaskSystem base = generate_task_system(sys_rng, params);
    TaskSystem sys;
    for (const auto& t : base) {
      Time d = sys_rng.bernoulli(0.5)
                   ? checked_mul(t.deadline(), 2)
                   : t.deadline();
      sys.add(DagTask(t.graph(), d, t.period(), t.name()));
    }
    auto arb = arbitrary_federated_schedule(sys, 8);
    if (!arb.success) continue;
    for (const auto& c : arb.clusters) {
      Rng rel_rng = sys_rng.split();
      auto releases = generate_releases(sys[c.task], cfg, rel_rng);
      SimStats s = simulate_pipelined_cluster(sys[c.task], c.sigma,
                                              c.instances, releases, cfg);
      EXPECT_EQ(s.deadline_misses, 0u);
      ++simulated;
    }
  }
  EXPECT_GT(simulated, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbitraryFedPropertyTest,
                         ::testing::Values(81u, 82u, 83u));

}  // namespace
}  // namespace fedcons
