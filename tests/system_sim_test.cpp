// Tests for whole-platform simulation of FEDCONS allocations.
#include "fedcons/sim/system_sim.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/listsched/anomaly.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

TaskSystem mixed_system() {
  TaskSystem sys;
  // High-density: 6 unit jobs, D=2, T=8 (δ=3 → 3 processors).
  std::array<Time, 6> w{1, 1, 1, 1, 1, 1};
  sys.add(DagTask(make_independent(w), 2, 8));
  sys.add(make_paper_example_task());
  sys.add(simple_task(2, 8, 32));
  return sys;
}

TEST(SystemSimTest, AcceptedMixedSystemHasNoMisses) {
  TaskSystem sys = mixed_system();
  auto alloc = fedcons_schedule(sys, 5);
  ASSERT_TRUE(alloc.success) << alloc.describe(sys);
  SimConfig cfg;
  cfg.horizon = 20000;
  SystemSimReport rep = simulate_system(sys, alloc, cfg);
  EXPECT_EQ(rep.total.deadline_misses, 0u);
  EXPECT_GT(rep.total.jobs_released, 0u);
  EXPECT_EQ(rep.cluster_stats.size(), alloc.clusters.size());
  EXPECT_EQ(rep.shared_stats.size(), alloc.shared_assignment.size());
}

TEST(SystemSimTest, SporadicReleasesAndReducedExecStaySafe) {
  TaskSystem sys = mixed_system();
  auto alloc = fedcons_schedule(sys, 5);
  ASSERT_TRUE(alloc.success);
  SimConfig cfg;
  cfg.horizon = 50000;
  cfg.release = ReleaseModel::kSporadic;
  cfg.jitter_frac = 0.7;
  cfg.exec = ExecModel::kUniform;
  cfg.exec_lo = 0.4;
  cfg.seed = 99;
  SystemSimReport rep = simulate_system(sys, alloc, cfg);
  EXPECT_EQ(rep.total.deadline_misses, 0u);
}

TEST(SystemSimTest, OnlineRerunDispatchCanViolate) {
  // The anomaly instance as a federated system: accepted with σ makespan
  // exactly D, then run with online LS re-dispatch and reduced times.
  AnomalyInstance inst = make_graham_anomaly_instance();
  TaskSystem sys;
  sys.add(DagTask(inst.dag, inst.wcet_makespan, inst.wcet_makespan));
  auto alloc = fedcons_schedule(sys, inst.processors);
  ASSERT_TRUE(alloc.success);
  ASSERT_EQ(alloc.clusters.size(), 1u);
  SimConfig cfg;
  cfg.horizon = 20000;
  cfg.exec = ExecModel::kUniform;
  cfg.exec_lo = 0.5;
  cfg.seed = 3;
  SystemSimReport replay =
      simulate_system(sys, alloc, cfg, ClusterDispatch::kTemplateReplay);
  EXPECT_EQ(replay.total.deadline_misses, 0u);
  // The online re-run is not *guaranteed* to miss on random reductions, but
  // replay safety must hold regardless; pinpoint miss behaviour is covered
  // in cluster_sim_test with the exact anomalous execution times.
}

TEST(SystemSimTest, ArbitraryCompositionHasNoMisses) {
  // Overlapping chain (needs 3 pipelined instances) plus D>T low task plus
  // a constrained low task — the full arbitrary-deadline platform.
  TaskSystem sys;
  std::array<Time, 3> w{4, 4, 4};
  sys.add(DagTask(make_chain(w), 15, 5, "overlap"));
  sys.add(simple_task(2, 30, 20));
  sys.add(simple_task(3, 12, 16));
  auto alloc = arbitrary_federated_schedule(sys, 5);
  ASSERT_TRUE(alloc.success) << alloc.describe(sys);
  for (auto release : {ReleaseModel::kPeriodic, ReleaseModel::kSporadic}) {
    SimConfig cfg;
    cfg.horizon = 30000;
    cfg.release = release;
    cfg.exec = ExecModel::kUniform;
    cfg.exec_lo = 0.5;
    cfg.seed = 21;
    SystemSimReport rep = simulate_arbitrary_system(sys, alloc, cfg);
    EXPECT_EQ(rep.total.deadline_misses, 0u);
    EXPECT_GT(rep.total.jobs_released, 1000u);
    EXPECT_EQ(rep.cluster_stats.size(), 1u);
  }
}

TEST(SystemSimTest, ArbitraryRejectedAllocationRefused) {
  TaskSystem sys;
  std::array<Time, 3> w{4, 4, 4};
  sys.add(DagTask(make_chain(w), 15, 5));
  auto alloc = arbitrary_federated_schedule(sys, 2);  // needs 3
  ASSERT_FALSE(alloc.success);
  EXPECT_THROW(simulate_arbitrary_system(sys, alloc, SimConfig{}),
               ContractViolation);
}

TEST(SystemSimTest, RejectedAllocationRefused) {
  TaskSystem sys;
  std::array<Time, 8> w{1, 1, 1, 1, 1, 1, 1, 1};
  sys.add(DagTask(make_independent(w), 2, 4));
  auto alloc = fedcons_schedule(sys, 2);
  ASSERT_FALSE(alloc.success);
  EXPECT_THROW(simulate_system(sys, alloc, SimConfig{}), ContractViolation);
}

TEST(SystemSimTest, PerSubsystemStatsAggregate) {
  TaskSystem sys = mixed_system();
  auto alloc = fedcons_schedule(sys, 5);
  ASSERT_TRUE(alloc.success);
  SimConfig cfg;
  cfg.horizon = 10000;
  SystemSimReport rep = simulate_system(sys, alloc, cfg);
  std::uint64_t sum = 0;
  for (const auto& s : rep.cluster_stats) sum += s.jobs_released;
  for (const auto& s : rep.shared_stats) sum += s.jobs_released;
  EXPECT_EQ(sum, rep.total.jobs_released);
}

}  // namespace
}  // namespace fedcons
