// Tests for the partitioned deadline-monotonic baseline.
#include "fedcons/baselines/partitioned_dm.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/analysis/rta.h"
#include "fedcons/baselines/partitioned_seq.h"
#include "fedcons/core/builders.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period);
}

TEST(PartitionedDmTest, EmptySystem) {
  EXPECT_TRUE(partitioned_dm(TaskSystem{}, 2).success);
  EXPECT_THROW(partitioned_dm(TaskSystem{}, 0), ContractViolation);
}

TEST(PartitionedDmTest, SimplePlacement) {
  TaskSystem sys;
  sys.add(simple_task(6, 10, 20));
  sys.add(simple_task(6, 10, 20));
  auto r = partitioned_dm(sys, 2);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.assignment[0].size() + r.assignment[1].size(), 2u);
  EXPECT_FALSE(partitioned_dm_schedulable(sys, 1));
}

TEST(PartitionedDmTest, HighDensityTaskRejectedEverywhere) {
  TaskSystem sys;
  std::array<Time, 6> w{1, 1, 1, 1, 1, 1};
  sys.add(DagTask(make_independent(w), 3, 12));  // vol 6 > D 3
  EXPECT_FALSE(partitioned_dm_schedulable(sys, 64));
}

TEST(PartitionedDmTest, RejectsArbitraryDeadlines) {
  TaskSystem sys;
  sys.add(simple_task(1, 20, 10));
  EXPECT_THROW(partitioned_dm(sys, 2), ContractViolation);
}

TEST(PartitionedDmTest, AcceptedBinsPassRta) {
  Rng rng(21);
  TaskSetParams params;
  params.num_tasks = 8;
  params.total_utilization = 2.0;
  params.utilization_cap = 0.9;
  int verified = 0;
  for (int trial = 0; trial < 30; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    auto r = partitioned_dm(sys, 4);
    if (!r.success) continue;
    for (const auto& bin : r.assignment) {
      std::vector<SporadicTask> seq;
      for (TaskId t : bin) seq.push_back(sys[t].to_sequential());
      EXPECT_TRUE(dm_schedulable(seq));
      ++verified;
    }
  }
  EXPECT_GT(verified, 0);
}

TEST(PartitionedDmTest, NeverBeatsPartitionedEdfInAggregate) {
  // Per-processor DM is dominated by per-processor EDF (optimality), but the
  // bin-packing orders coincide here (both DM-first-fit), so P-SEQ (EDF
  // bins, DBF* admission) should accept at least as often in aggregate.
  Rng rng(22);
  TaskSetParams params;
  params.num_tasks = 10;
  params.total_utilization = 2.5;
  params.utilization_cap = 0.9;
  int dm_count = 0, edf_count = 0;
  for (int trial = 0; trial < 50; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    if (partitioned_dm_schedulable(sys, 3)) ++dm_count;
    if (partitioned_sequential_schedulable(sys, 3)) ++edf_count;
  }
  EXPECT_GE(edf_count, dm_count);
}

TEST(PartitionedDmTest, MonotoneInProcessorCount) {
  Rng rng(23);
  TaskSetParams params;
  params.num_tasks = 6;
  params.total_utilization = 2.0;
  params.utilization_cap = 0.9;
  for (int trial = 0; trial < 15; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    bool prev = false;
    for (int m = 1; m <= 8; ++m) {
      bool now = partitioned_dm_schedulable(sys, m);
      EXPECT_TRUE(!prev || now);
      prev = now;
    }
  }
}

}  // namespace
}  // namespace fedcons
