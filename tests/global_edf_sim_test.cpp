// Tests for the global EDF multiprocessor DAG simulator.
#include "fedcons/sim/global_edf_sim.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

std::vector<std::vector<DagJobRelease>> releases_for(const TaskSystem& sys,
                                                     const SimConfig& cfg,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<DagJobRelease>> out;
  for (const auto& t : sys) {
    Rng child = rng.split();
    out.push_back(generate_releases(t, cfg, child));
  }
  return out;
}

TEST(GlobalEdfSimTest, SingleChainRunsSequentially) {
  std::array<Time, 3> w{2, 3, 4};
  TaskSystem sys;
  sys.add(DagTask(make_chain(w), 20, 40));
  SimConfig cfg;
  cfg.horizon = 400;
  auto rel = releases_for(sys, cfg, 1);
  SimStats s = simulate_global_edf(sys, rel, 4, cfg);
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_EQ(s.max_response_time, 9);  // vol of the chain
}

TEST(GlobalEdfSimTest, ParallelBranchesUseProcessors) {
  std::array<Time, 3> branches{5, 5, 5};
  TaskSystem sys;
  sys.add(DagTask(make_fork_join(1, branches, 1), 8, 50));
  SimConfig cfg;
  cfg.horizon = 500;
  auto rel = releases_for(sys, cfg, 2);
  // Three processors: all branches in parallel → response 1+5+1 = 7 ≤ 8.
  SimStats s3 = simulate_global_edf(sys, rel, 3, cfg);
  EXPECT_EQ(s3.deadline_misses, 0u);
  EXPECT_EQ(s3.max_response_time, 7);
  // One processor: response = vol = 17 > 8 → every dag-job misses.
  SimStats s1 = simulate_global_edf(sys, rel, 1, cfg);
  EXPECT_EQ(s1.deadline_misses, s1.jobs_released);
  EXPECT_EQ(s1.max_response_time, 17);
}

TEST(GlobalEdfSimTest, EdfOrderAcrossTasks) {
  // Task A (tight deadline) and task B (loose): B is preempted.
  TaskSystem sys;
  DagBuilder a;
  a.add_vertex(2);
  sys.add(DagTask(a.build(), 3, 1000));
  DagBuilder b;
  b.add_vertex(10);
  sys.add(DagTask(b.build(), 100, 1000));
  SimConfig cfg;
  cfg.horizon = 1000;
  auto rel = releases_for(sys, cfg, 3);
  SimStats s = simulate_global_edf(sys, rel, 1, cfg);
  EXPECT_EQ(s.deadline_misses, 0u);
  // A finishes at 2; B at 12.
  EXPECT_EQ(s.max_response_time, 12);
}

TEST(GlobalEdfSimTest, PrecedenceRespectedUnderContention) {
  // Diamond with heavy sides: the sink cannot start before both sides done.
  Dag g = DagBuilder{}
              .vertices({1, 4, 6, 1})
              .edge(0, 1)
              .edge(0, 2)
              .edge(1, 3)
              .edge(2, 3)
              .build();
  TaskSystem sys;
  sys.add(DagTask(std::move(g), 20, 100));
  SimConfig cfg;
  cfg.horizon = 100;
  auto rel = releases_for(sys, cfg, 4);
  SimStats s = simulate_global_edf(sys, rel, 2, cfg);
  EXPECT_EQ(s.deadline_misses, 0u);
  // 1 + max(4,6) + 1 = 8 with two processors.
  EXPECT_EQ(s.max_response_time, 8);
}

TEST(GlobalEdfSimTest, ValidatesArguments) {
  TaskSystem sys;
  DagBuilder g;
  g.add_vertex(1);
  sys.add(DagTask(g.build(), 5, 10));
  SimConfig cfg;
  auto rel = releases_for(sys, cfg, 4);
  EXPECT_THROW(simulate_global_edf(sys, rel, 0, cfg), ContractViolation);
  std::vector<std::vector<DagJobRelease>> wrong;  // size mismatch
  EXPECT_THROW(simulate_global_edf(sys, wrong, 1, cfg), ContractViolation);
}

TEST(GlobalEdfSimTest, StatsInternallyConsistentOnRandomSystems) {
  // NOTE: "more processors → fewer misses" is NOT asserted — global
  // scheduling of precedence-constrained jobs exhibits Graham/Richard
  // anomalies where extra processors can lengthen schedules. We check the
  // invariants that do hold: release counts are platform-independent, misses
  // never exceed releases, and the busy fraction is a valid fraction.
  Rng rng(5);
  TaskSetParams params;
  params.num_tasks = 4;
  params.total_utilization = 2.0;
  params.utilization_cap = 2.0;
  params.period_min = 50;
  params.period_max = 500;
  SimConfig cfg;
  cfg.horizon = 20000;
  for (int trial = 0; trial < 10; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    auto rel = releases_for(sys, cfg, 100 + static_cast<std::uint64_t>(trial));
    std::uint64_t expected_released = 0;
    for (const auto& r : rel) expected_released += r.size();
    for (int m : {1, 2, 4, 8}) {
      SimStats s = simulate_global_edf(sys, rel, m, cfg);
      EXPECT_EQ(s.jobs_released, expected_released);
      EXPECT_LE(s.deadline_misses, s.jobs_released);
      EXPECT_GE(s.busy_fraction, 0.0);
      EXPECT_LE(s.busy_fraction, 1.0 + 1e-9);
    }
  }
}

}  // namespace
}  // namespace fedcons
