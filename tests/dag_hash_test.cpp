// Canonical DAG content hash (core/dag_hash.h): the memo-cache key must be
// invariant under vertex relabeling and edge reordering, sensitive to every
// content lane (WCETs, structure, D, T), and collision-free in practice over
// the generator families the experiments draw from.
#include "fedcons/core/dag_hash.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fedcons/core/io.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

// Diamond with a tail: v0 -> {v1, v2} -> v3 -> v4, distinct WCETs.
DagTask diamond_task() {
  DagBuilder g;
  const VertexId a = g.add_vertex(3);
  const VertexId b = g.add_vertex(5);
  const VertexId c = g.add_vertex(7);
  const VertexId d = g.add_vertex(2);
  const VertexId e = g.add_vertex(11);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.add_edge(d, e);
  return DagTask(g.build(), /*deadline=*/40, /*period=*/50, "diamond");
}

TEST(DagHash, RelabelingInvariance) {
  const DagTask original = diamond_task();
  // Same graph, vertices inserted in reverse and edges in a different order.
  DagBuilder g;
  const VertexId e = g.add_vertex(11);
  const VertexId d = g.add_vertex(2);
  const VertexId c = g.add_vertex(7);
  const VertexId b = g.add_vertex(5);
  const VertexId a = g.add_vertex(3);
  g.add_edge(d, e);
  g.add_edge(c, d);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(a, b);
  const DagTask relabeled(g.build(), 40, 50, "same content, different labels");
  EXPECT_EQ(canonical_task_hash(original), canonical_task_hash(relabeled));
  EXPECT_EQ(canonical_dag_hash(original.graph()),
            canonical_dag_hash(relabeled.graph()));
}

TEST(DagHash, NameIsExcluded) {
  const DagTask a = diamond_task();
  Dag g = a.graph();
  const DagTask renamed(g, a.deadline(), a.period(), "another name");
  EXPECT_EQ(canonical_task_hash(a), canonical_task_hash(renamed));
}

TEST(DagHash, WcetSensitivity) {
  const DagTask base = diamond_task();
  DagBuilder g;
  const VertexId a = g.add_vertex(3);
  const VertexId b = g.add_vertex(5);
  const VertexId c = g.add_vertex(7);
  const VertexId d = g.add_vertex(2);
  const VertexId e = g.add_vertex(12);  // 11 -> 12
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.add_edge(d, e);
  const DagTask tweaked(g.build(), 40, 50);
  EXPECT_NE(canonical_task_hash(base), canonical_task_hash(tweaked));
}

TEST(DagHash, DeadlineAndPeriodSensitivity) {
  const DagTask base = diamond_task();
  Dag g = base.graph();
  const DagTask d_changed(g, 41, 50);
  Dag g2 = base.graph();
  const DagTask t_changed(g2, 40, 51);
  EXPECT_NE(canonical_task_hash(base), canonical_task_hash(d_changed));
  EXPECT_NE(canonical_task_hash(base), canonical_task_hash(t_changed));
  EXPECT_NE(canonical_task_hash(d_changed), canonical_task_hash(t_changed));
  // D/T only reach the task hash, not the graph hash.
  EXPECT_EQ(canonical_dag_hash(base.graph()),
            canonical_dag_hash(d_changed.graph()));
}

TEST(DagHash, EdgeSensitivity) {
  DagBuilder with_edge;
  const VertexId a = with_edge.add_vertex(4);
  const VertexId b = with_edge.add_vertex(4);
  with_edge.add_edge(a, b);
  DagBuilder without_edge;
  without_edge.add_vertex(4);
  without_edge.add_vertex(4);
  EXPECT_NE(canonical_dag_hash(with_edge.build()),
            canonical_dag_hash(without_edge.build()));
}

TEST(DagHash, OrientationSensitivity) {
  // Same undirected shape, opposite edge direction between unequal WCETs.
  DagBuilder forward;
  {
    const VertexId a = forward.add_vertex(3);
    const VertexId b = forward.add_vertex(9);
    forward.add_edge(a, b);
  }
  DagBuilder backward;
  {
    const VertexId a = backward.add_vertex(3);
    const VertexId b = backward.add_vertex(9);
    backward.add_edge(b, a);
  }
  EXPECT_NE(canonical_dag_hash(forward.build()),
            canonical_dag_hash(backward.build()));
}

TEST(DagHash, HexFormat) {
  const DagHash h = canonical_task_hash(diamond_task());
  const std::string hex = h.to_hex();
  ASSERT_EQ(hex.size(), 32u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
  EXPECT_EQ((DagHash{0, 0}.to_hex()),
            std::string("00000000000000000000000000000000"));
}

// Birthday sweep over the experiment generators: thousands of tasks from
// both topology families at varied utilizations. Distinct content must not
// collide; tasks whose 128-bit digests DO collide must be the same content,
// which we check by comparing the cheap exact invariants and then the full
// serialized form (serialization is canonical up to vertex order, which the
// generators fix, so equal text == equal content here).
TEST(DagHash, BirthdaySweepOverGenerators) {
  Rng rng(20260808);
  std::map<std::string, std::string> by_hash;  // hex -> serialized system
  int tasks_hashed = 0;
  for (int batch = 0; batch < 120; ++batch) {
    TaskSetParams params;
    params.num_tasks = 6;
    params.total_utilization = 0.5 + 0.25 * (batch % 12);
    params.period_min = 50.0;
    params.period_max = 5000.0;
    params.topology = (batch % 3 == 0)   ? DagTopology::kLayered
                      : (batch % 3 == 1) ? DagTopology::kForkJoin
                                         : DagTopology::kMixed;
    const TaskSystem system = generate_task_system(rng, params);
    for (const DagTask& task : system) {
      ++tasks_hashed;
      const std::string hex = canonical_task_hash(task).to_hex();
      // Hash excludes the display name, so the reference form must too.
      const DagTask anonymous(task.graph(), task.deadline(), task.period());
      const std::string text =
          serialize_task_system(TaskSystem(std::vector<DagTask>{anonymous}));
      const auto [it, inserted] = by_hash.emplace(hex, text);
      if (!inserted) {
        EXPECT_EQ(it->second, text)
            << "128-bit collision between distinct tasks, key " << hex;
      }
    }
  }
  EXPECT_EQ(tasks_hashed, 120 * 6);
}

}  // namespace
}  // namespace fedcons
