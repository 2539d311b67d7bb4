// Tests for the comparison baselines: global-EDF density test and pure
// partitioned (sequentialized) scheduling.
#include "fedcons/baselines/global_edf.h"
#include "fedcons/baselines/partitioned_seq.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/federated/fedcons_algorithm.h"
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

TEST(GedfDagDensityTest, EmptyAccepted) {
  EXPECT_TRUE(gedf_dag_density_test(TaskSystem{}, 2));
  EXPECT_THROW(gedf_dag_density_test(TaskSystem{}, 0), ContractViolation);
}

TEST(GedfDagDensityTest, CriticalPathGate) {
  TaskSystem sys;
  std::array<Time, 3> w{4, 4, 4};
  sys.add(DagTask(make_chain(w), 10, 30));  // len 12 > D 10
  EXPECT_FALSE(gedf_dag_density_test(sys, 16));
}

TEST(GedfDagDensityTest, DensityBound) {
  TaskSystem sys;
  sys.add(simple_task(5, 10, 10));  // δ = 1/2
  sys.add(simple_task(5, 10, 10));
  sys.add(simple_task(5, 10, 10));
  // Σδ = 3/2 ≤ 2 − 1·(1/2) = 3/2 on m = 2: accept at the boundary.
  EXPECT_TRUE(gedf_dag_density_test(sys, 2));
  sys.add(simple_task(1, 100, 100));
  EXPECT_FALSE(gedf_dag_density_test(sys, 2));
}

TEST(PartitionedSeqTest, HighDensityTaskStructurallyRejected) {
  // vol > D makes a sequentialized task unplaceable on any single processor
  // — exactly the federation gap the paper motivates.
  TaskSystem sys;
  std::array<Time, 6> w{1, 1, 1, 1, 1, 1};
  sys.add(DagTask(make_independent(w), 3, 12));  // vol 6 > D 3, len 1
  EXPECT_FALSE(partitioned_sequential_schedulable(sys, 64));
  // FEDCONS handles it with a 2-processor cluster.
  EXPECT_TRUE(fedcons_schedulable(sys, 2));
}

TEST(PartitionedSeqTest, LowDensityOnlySystemsMatchFedcons) {
  // With no high-density tasks FEDCONS degenerates to PARTITION, so the two
  // verdicts coincide on every system and platform size.
  Rng rng(17);
  TaskSetParams params;
  params.num_tasks = 6;
  params.total_utilization = 2.0;
  params.utilization_cap = 0.9;  // keeps every task low-density
  params.deadline_ratio_min = 0.8;
  for (int trial = 0; trial < 30; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    bool all_low = sys.high_density_tasks().empty();
    if (!all_low) continue;
    for (int m : {2, 3, 4}) {
      EXPECT_EQ(partitioned_sequential_schedulable(sys, m),
                fedcons_schedulable(sys, m));
    }
  }
}

TEST(PartitionedSeqTest, SimpleAcceptance) {
  TaskSystem sys;
  sys.add(simple_task(6, 10, 20));
  sys.add(simple_task(6, 10, 20));
  EXPECT_TRUE(partitioned_sequential_schedulable(sys, 2));
  EXPECT_FALSE(partitioned_sequential_schedulable(sys, 1));
  EXPECT_THROW(partitioned_sequential_schedulable(sys, 0),
               ContractViolation);
}

}  // namespace
}  // namespace fedcons
