// Tests for dedicated-cluster simulation: template replay vs online re-run.
#include "fedcons/sim/cluster_sim.h"

#include <gtest/gtest.h>

#include "fedcons/core/builders.h"
#include "fedcons/listsched/anomaly.h"
#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

TEST(ClusterSimTest, TemplateReplayMeetsDeadlinesAtWcet) {
  DagTask t = make_paper_example_task();
  TemplateSchedule sigma = list_schedule(t.graph(), 2);
  ASSERT_LE(sigma.makespan(), t.deadline());
  SimConfig cfg;
  cfg.horizon = 2000;
  Rng rng(1);
  auto releases = generate_releases(t, cfg, rng);
  SimStats s = simulate_cluster(t, sigma, releases, cfg,
                                ClusterDispatch::kTemplateReplay);
  EXPECT_EQ(s.jobs_released, releases.size());
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_LE(s.max_response_time, sigma.makespan());
}

TEST(ClusterSimTest, TemplateReplaySafeUnderReducedExecTimes) {
  DagTask t = make_paper_example_task();
  TemplateSchedule sigma = list_schedule(t.graph(), 2);
  SimConfig cfg;
  cfg.horizon = 5000;
  cfg.exec = ExecModel::kUniform;
  cfg.exec_lo = 0.3;
  Rng rng(2);
  auto releases = generate_releases(t, cfg, rng);
  SimStats s = simulate_cluster(t, sigma, releases, cfg,
                                ClusterDispatch::kTemplateReplay);
  EXPECT_EQ(s.deadline_misses, 0u);
}

TEST(ClusterSimTest, OnlineRerunMissesOnGrahamAnomaly) {
  // The paper's footnote-2 scenario, end to end: σ fits D exactly, the
  // anomalous re-run overshoots it.
  AnomalyInstance inst = make_graham_anomaly_instance();
  DagTask t(inst.dag, /*deadline=*/inst.wcet_makespan,
            /*period=*/inst.wcet_makespan);
  TemplateSchedule sigma = list_schedule(t.graph(), inst.processors);
  ASSERT_EQ(sigma.makespan(), inst.wcet_makespan);

  // One release with exactly the anomalous execution times.
  std::vector<DagJobRelease> releases(1);
  releases[0].release = 0;
  releases[0].exec_times = inst.reduced_exec_times;

  SimConfig cfg;
  cfg.horizon = 100;
  SimStats replay = simulate_cluster(t, sigma, releases, cfg,
                                     ClusterDispatch::kTemplateReplay);
  EXPECT_EQ(replay.deadline_misses, 0u);

  SimStats rerun = simulate_cluster(t, sigma, releases, cfg,
                                    ClusterDispatch::kOnlineRerun);
  EXPECT_EQ(rerun.deadline_misses, 1u);
  EXPECT_EQ(rerun.max_lateness, inst.reduced_makespan - inst.wcet_makespan);
}

TEST(ClusterSimTest, RejectsMismatchedSchedule) {
  DagTask t = make_paper_example_task();
  TemplateSchedule wrong = list_schedule(DagBuilder{}.vertex(1).build(), 1);
  SimConfig cfg;
  Rng rng(3);
  auto releases = generate_releases(t, cfg, rng);
  EXPECT_THROW(simulate_cluster(t, wrong, releases, cfg,
                                ClusterDispatch::kTemplateReplay),
               ContractViolation);
}

TEST(ClusterSimTest, BusyFractionPositive) {
  DagTask t = make_paper_example_task();
  TemplateSchedule sigma = list_schedule(t.graph(), 1);
  SimConfig cfg;
  cfg.horizon = 1000;
  Rng rng(4);
  auto releases = generate_releases(t, cfg, rng);
  SimStats s = simulate_cluster(t, sigma, releases, cfg,
                                ClusterDispatch::kTemplateReplay);
  // vol 9 every 20 ticks on 1 processor ≈ 0.45 busy.
  EXPECT_NEAR(s.busy_fraction, 0.45, 0.05);
}

TEST(ClusterSimTest, DispatchNames) {
  EXPECT_STREQ(to_string(ClusterDispatch::kTemplateReplay),
               "template-replay");
  EXPECT_STREQ(to_string(ClusterDispatch::kOnlineRerun), "online-rerun");
}

}  // namespace
}  // namespace fedcons
