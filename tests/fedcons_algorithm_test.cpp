// End-to-end tests for Algorithm FEDCONS (paper, Figure 2).
#include "fedcons/federated/fedcons_algorithm.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period,
                    std::string name = {}) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period, std::move(name));
}

/// A genuinely parallel high-density task: `width` unit jobs, deadline 2.
DagTask wide_task(int width, Time deadline, Time period) {
  DagBuilder g;
  for (int i = 0; i < width; ++i) g.add_vertex(1);
  return DagTask(g.build(), deadline, period);
}

TEST(FedconsTest, EmptySystemSchedulable) {
  EXPECT_TRUE(fedcons_schedule(TaskSystem{}, 1).success);
}

TEST(FedconsTest, RejectsArbitraryDeadlines) {
  TaskSystem sys;
  sys.add(simple_task(1, 20, 10));
  EXPECT_THROW(fedcons_schedule(sys, 2), ContractViolation);
  EXPECT_THROW(fedcons_schedule(TaskSystem{}, 0), ContractViolation);
}

TEST(FedconsTest, PureLowDensitySystemGoesToPartition) {
  TaskSystem sys;
  sys.add(make_paper_example_task());
  sys.add(simple_task(2, 10, 20));
  auto r = fedcons_schedule(sys, 2);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.clusters.empty());
  EXPECT_EQ(r.shared_processors, 2);
  EXPECT_EQ(r.first_shared_processor, 0);
  std::size_t assigned = 0;
  for (const auto& p : r.shared_assignment) assigned += p.size();
  EXPECT_EQ(assigned, 2u);
}

TEST(FedconsTest, HighDensityTaskGetsDedicatedCluster) {
  TaskSystem sys;
  // 8 unit jobs, D = 2, T = 4: δ = 4 → needs 4 dedicated processors.
  sys.add(wide_task(8, 2, 4));
  sys.add(simple_task(2, 10, 20));
  auto r = fedcons_schedule(sys, 5);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_EQ(r.clusters[0].task, 0u);
  EXPECT_EQ(r.clusters[0].num_processors, 4);
  EXPECT_EQ(r.clusters[0].first_processor, 0);
  EXPECT_LE(r.clusters[0].sigma.makespan(), 2);
  EXPECT_EQ(r.shared_processors, 1);
  EXPECT_EQ(r.first_shared_processor, 4);
}

TEST(FedconsTest, FailsInHighDensityPhaseWhenProcessorsExhausted) {
  TaskSystem sys;
  sys.add(wide_task(8, 2, 4));  // needs 4
  auto r = fedcons_schedule(sys, 3);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FedconsFailure::kHighDensityPhase);
  ASSERT_TRUE(r.failed_task.has_value());
  EXPECT_EQ(*r.failed_task, 0u);
}

TEST(FedconsTest, FailsInPartitionPhaseWhenSharedPoolTooSmall) {
  TaskSystem sys;
  sys.add(wide_task(8, 2, 4));       // consumes 4 of 4 processors
  sys.add(simple_task(2, 10, 20));   // nowhere to go
  auto r = fedcons_schedule(sys, 4);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FedconsFailure::kPartitionPhase);
  ASSERT_TRUE(r.failed_task.has_value());
  EXPECT_EQ(*r.failed_task, 1u);
}

TEST(FedconsTest, InfeasibleCriticalPathFailsHighPhase) {
  std::array<Time, 3> w{5, 5, 5};
  TaskSystem sys;
  sys.add(DagTask(make_chain(w), 10, 15));  // len 15 > D 10, δ = 1.5
  auto r = fedcons_schedule(sys, 64);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FedconsFailure::kHighDensityPhase);
}

TEST(FedconsTest, Example2NeedsOneProcessorPerTask) {
  // Paper Example 2: each task has δ = 1 (high-density), so FEDCONS
  // dedicates one processor per task: succeeds iff m ≥ n.
  const int n = 6;
  TaskSystem sys = make_capacity_augmentation_counterexample(n);
  auto ok = fedcons_schedule(sys, n);
  ASSERT_TRUE(ok.success);
  EXPECT_EQ(ok.clusters.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(ok.shared_processors, 0);
  EXPECT_FALSE(fedcons_schedule(sys, n - 1).success);
}

TEST(FedconsTest, MixedSystemEndToEnd) {
  TaskSystem sys;
  sys.add(wide_task(6, 2, 8));                        // δ = 3: high
  sys.add(make_paper_example_task());                 // δ = 9/16: low
  sys.add(simple_task(1, 4, 16, "light"));            // δ = 1/4: low
  std::array<Time, 2> branches{3, 3};
  sys.add(DagTask(make_fork_join(1, branches, 1), 8, 10));  // vol 8, δ = 1
  auto r = fedcons_schedule(sys, 8);
  ASSERT_TRUE(r.success) << r.describe(sys);
  EXPECT_EQ(r.clusters.size(), 2u);  // tasks 0 and 3
  // Cluster processors are disjoint and contiguous from 0.
  int next = 0;
  for (const auto& c : r.clusters) {
    EXPECT_EQ(c.first_processor, next);
    next += c.num_processors;
  }
  EXPECT_EQ(r.first_shared_processor, next);
  EXPECT_EQ(r.shared_processors, 8 - next);
}

TEST(FedconsTest, DescribeMentionsOutcome) {
  TaskSystem sys;
  sys.add(simple_task(2, 10, 20, "solo"));
  auto ok = fedcons_schedule(sys, 1);
  ASSERT_TRUE(ok.success);
  EXPECT_NE(ok.describe(sys).find("SUCCESS"), std::string::npos);

  TaskSystem big;
  big.add(wide_task(8, 2, 4));
  auto fail = fedcons_schedule(big, 2);
  EXPECT_NE(fail.describe(big).find("FAILURE"), std::string::npos);
  EXPECT_NE(fail.describe(big).find("high-density-phase"), std::string::npos);
}

TEST(FedconsTest, FailureEnumNames) {
  EXPECT_STREQ(to_string(FedconsFailure::kNone), "accepted");
  EXPECT_STREQ(to_string(FedconsFailure::kHighDensityPhase),
               "high-density-phase");
  EXPECT_STREQ(to_string(FedconsFailure::kPartitionPhase), "partition-phase");
}

// Properties over random systems.
class FedconsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FedconsPropertyTest, AcceptanceMonotoneInProcessorCount) {
  Rng rng(GetParam());
  TaskSetParams params;
  params.num_tasks = 6;
  params.total_utilization = 2.5;
  params.utilization_cap = 4.0;
  for (int trial = 0; trial < 25; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    bool prev = false;
    for (int m = 1; m <= 10; ++m) {
      bool now = fedcons_schedulable(sys, m);
      EXPECT_TRUE(!prev || now)
          << "FEDCONS acceptance regressed when adding a processor";
      prev = now;
    }
  }
}

TEST_P(FedconsPropertyTest, AcceptedAllocationsAreStructurallySound) {
  Rng rng(GetParam() ^ 0x77);
  TaskSetParams params;
  params.num_tasks = 8;
  params.total_utilization = 3.0;
  params.utilization_cap = 6.0;
  for (int trial = 0; trial < 25; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    auto r = fedcons_schedule(sys, 8);
    if (!r.success) continue;
    // Every task appears exactly once (in a cluster xor on a shared proc).
    std::vector<int> seen(sys.size(), 0);
    int proc_budget = 0;
    for (const auto& c : r.clusters) {
      ++seen[c.task];
      proc_budget += c.num_processors;
      EXPECT_TRUE(sys[c.task].is_high_density());
      EXPECT_LE(c.sigma.makespan(), sys[c.task].deadline());
      EXPECT_TRUE(c.sigma.validate_against(sys[c.task].graph()));
    }
    for (const auto& p : r.shared_assignment) {
      for (TaskId t : p) {
        ++seen[t];
        EXPECT_TRUE(sys[t].is_low_density());
      }
    }
    for (std::size_t i = 0; i < sys.size(); ++i) EXPECT_EQ(seen[i], 1);
    EXPECT_EQ(proc_budget + r.shared_processors, 8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedconsPropertyTest,
                         ::testing::Values(51u, 52u, 53u));

}  // namespace
}  // namespace fedcons
