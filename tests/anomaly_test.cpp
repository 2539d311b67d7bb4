// Regression tests for Graham's timing anomaly — the justification for
// FEDCONS's template-replay run-time rule (paper, footnote 2).
#include "fedcons/listsched/anomaly.h"

#include <gtest/gtest.h>

#include "fedcons/gen/dag_gen.h"
#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

TEST(AnomalyTest, GrahamClassicInstanceNumbers) {
  AnomalyInstance inst = make_graham_anomaly_instance();
  EXPECT_EQ(inst.processors, 3);
  EXPECT_EQ(inst.dag.num_vertices(), 9u);
  EXPECT_EQ(inst.dag.num_edges(), 5u);
  // The canonical figures: 12 with full WCETs, 13 with unit-shorter jobs.
  EXPECT_EQ(inst.wcet_makespan, 12);
  EXPECT_EQ(inst.reduced_makespan, 13);
}

TEST(AnomalyTest, ReducedTimesAreLegal) {
  AnomalyInstance inst = make_graham_anomaly_instance();
  ASSERT_EQ(inst.reduced_exec_times.size(), inst.dag.num_vertices());
  for (std::size_t v = 0; v < inst.dag.num_vertices(); ++v) {
    EXPECT_GE(inst.reduced_exec_times[v], 1);
    EXPECT_LE(inst.reduced_exec_times[v],
              inst.dag.wcet(static_cast<VertexId>(v)));
  }
}

TEST(AnomalyTest, TemplateReplayIsImmune) {
  // With template replay every job finishes no later than its σ slot, so the
  // dag-job completes within the WCET makespan regardless of actual times.
  AnomalyInstance inst = make_graham_anomaly_instance();
  TemplateSchedule sigma = list_schedule(inst.dag, inst.processors);
  Time worst_completion = 0;
  for (const auto& slot : sigma.jobs()) {
    Time finish = slot.start + inst.reduced_exec_times[slot.vertex];
    worst_completion = std::max(worst_completion, finish);
  }
  EXPECT_LE(worst_completion, inst.wcet_makespan);
  EXPECT_LT(worst_completion, inst.reduced_makespan);
}

TEST(AnomalyTest, FindAnomalyLocatesTheClassicOne) {
  AnomalyInstance classic = make_graham_anomaly_instance();
  AnomalyInstance found =
      find_anomaly(classic.dag, classic.processors, /*seed=*/1,
                   /*attempts=*/5000);
  ASSERT_GT(found.processors, 0) << "search failed on a known-anomalous DAG";
  EXPECT_GT(found.reduced_makespan, found.wcet_makespan);
}

TEST(AnomalyTest, FindAnomalyReportsNoneOnChain) {
  // A pure chain has no scheduling freedom: shortening jobs can only help.
  DagBuilder g;
  VertexId prev = g.add_vertex(5);
  for (int i = 0; i < 4; ++i) {
    VertexId v = g.add_vertex(5);
    g.add_edge(prev, v);
    prev = v;
  }
  AnomalyInstance none =
      find_anomaly(g.build(), 2, /*seed=*/2, /*attempts=*/200);
  EXPECT_EQ(none.processors, 0);
}

TEST(AnomalyTest, AnomaliesExistBeyondTheExactClassicInstance) {
  // Anomalies are not a knife-edge curiosity: WCET perturbations of the
  // Graham structure still admit anomalous execution-time reductions.
  AnomalyInstance classic = make_graham_anomaly_instance();
  Rng rng(99);
  int found = 0;
  for (int i = 0; i < 30 && found == 0; ++i) {
    DagBuilder g;
    for (std::size_t v = 0; v < classic.dag.num_vertices(); ++v) {
      Time w = classic.dag.wcet(static_cast<VertexId>(v));
      g.add_vertex(std::max<Time>(1, w + rng.uniform_int(0, 1)));
    }
    for (VertexId u = 0; u < classic.dag.num_vertices(); ++u) {
      for (VertexId s : classic.dag.successors(u)) g.add_edge(u, s);
    }
    AnomalyInstance inst = find_anomaly(g.build(), classic.processors,
                                        /*seed=*/1000 + i,
                                        /*attempts=*/500);
    if (inst.processors > 0) ++found;
  }
  EXPECT_GE(found, 1);
}

}  // namespace
}  // namespace fedcons
