// Tests for DAG transformations: transitive reduction, chain merging,
// sequentialization.
#include "fedcons/core/transform.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/gen/dag_gen.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

TEST(TransitiveReductionTest, RemovesImpliedEdge) {
  // a→b→c plus the redundant a→c.
  Dag g = DagBuilder{}
              .vertices({1, 2, 3})
              .edge(0, 1)
              .edge(1, 2)
              .edge(0, 2)
              .build();
  EXPECT_FALSE(is_transitively_reduced(g));
  Dag r = transitive_reduction(g);
  EXPECT_EQ(r.num_edges(), 2u);
  EXPECT_TRUE(r.has_edge(0, 1));
  EXPECT_TRUE(r.has_edge(1, 2));
  EXPECT_FALSE(r.has_edge(0, 2));
  EXPECT_TRUE(is_transitively_reduced(r));
}

TEST(TransitiveReductionTest, KeepsNecessaryEdges) {
  DagTask t = make_paper_example_task();  // already reduced
  EXPECT_TRUE(is_transitively_reduced(t.graph()));
  Dag r = transitive_reduction(t.graph());
  EXPECT_EQ(r.num_edges(), t.graph().num_edges());
}

TEST(TransitiveReductionTest, PreservesReachabilityAndMetrics) {
  Rng rng(3);
  LayeredDagParams p;
  p.skip_probability = 0.4;  // plenty of redundant skip edges
  for (int trial = 0; trial < 40; ++trial) {
    Dag g = generate_layered_dag(rng, p);
    Dag r = transitive_reduction(g);
    EXPECT_LE(r.num_edges(), g.num_edges());
    EXPECT_EQ(r.vol(), g.vol());
    EXPECT_EQ(r.len(), g.len());
    EXPECT_EQ(r.width(), g.width());
    EXPECT_TRUE(is_transitively_reduced(r));
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (u == v) continue;
        EXPECT_EQ(r.reaches(u, v), g.reaches(u, v))
            << "reachability changed for (" << u << ", " << v << ")";
      }
    }
  }
}

TEST(MergeLinearChainsTest, CollapsesPureChain) {
  std::array<Time, 4> w{2, 3, 4, 5};
  Dag g = make_chain(w);
  Dag m = merge_linear_chains(g);
  EXPECT_EQ(m.num_vertices(), 1u);
  EXPECT_EQ(m.num_edges(), 0u);
  EXPECT_EQ(m.vol(), 14);
  EXPECT_EQ(m.len(), 14);
}

TEST(MergeLinearChainsTest, KeepsBranchingStructure) {
  // src → {chain a1→a2, b} → sink: the interior chain a1→a2 merges; the
  // fork/join vertices survive.
  Dag g = DagBuilder{}
              .vertices({1, 2, 3, 4, 1})  // src, a1, a2, b, sink
              .edge(0, 1)
              .edge(1, 2)
              .edge(0, 3)
              .edge(2, 4)
              .edge(3, 4)
              .build();
  Dag m = merge_linear_chains(g);
  EXPECT_EQ(m.num_vertices(), 4u);  // src, (a1+a2), b, sink
  EXPECT_EQ(m.vol(), g.vol());
  EXPECT_EQ(m.len(), g.len());
  EXPECT_EQ(m.width(), g.width());
}

TEST(MergeLinearChainsTest, NoOpOnBranchyGraphs) {
  std::array<Time, 3> branches{4, 5, 6};
  Dag g = make_fork_join(1, branches, 1);
  Dag m = merge_linear_chains(g);
  EXPECT_EQ(m.num_vertices(), g.num_vertices());
  EXPECT_EQ(m.num_edges(), g.num_edges());
}

TEST(MergeLinearChainsTest, PreservesLenVolOnRandomDags) {
  Rng rng(4);
  LayeredDagParams p;
  p.min_width = 1;
  p.max_width = 3;
  for (int trial = 0; trial < 40; ++trial) {
    Dag g = generate_layered_dag(rng, p);
    Dag m = merge_linear_chains(g);
    EXPECT_LE(m.num_vertices(), g.num_vertices());
    EXPECT_EQ(m.vol(), g.vol());
    EXPECT_EQ(m.len(), g.len());
    // Idempotent.
    Dag mm = merge_linear_chains(m);
    EXPECT_EQ(mm.num_vertices(), m.num_vertices());
  }
}

TEST(SequentializeTest, ChainsEverything) {
  DagTask t = make_paper_example_task();
  Dag s = sequentialize(t.graph());
  EXPECT_EQ(s.num_vertices(), 5u);
  EXPECT_EQ(s.num_edges(), 4u);
  EXPECT_EQ(s.vol(), 9);
  EXPECT_EQ(s.len(), 9);  // len == vol after sequentialization
  EXPECT_EQ(s.width(), 1u);
  EXPECT_EQ(s.topological_order().size(), s.num_vertices());
}

TEST(SequentializeTest, RespectsOriginalPrecedence) {
  Rng rng(5);
  LayeredDagParams p;
  for (int trial = 0; trial < 20; ++trial) {
    Dag g = generate_layered_dag(rng, p);
    Dag s = sequentialize(g);
    // Every original edge must still be a forward path in the chain.
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.successors(u)) {
        EXPECT_TRUE(s.reaches(u, v));
      }
    }
  }
}

TEST(TransformTest, ValidateArguments) {
  // A cyclic graph cannot be built, so no transform ever sees one.
  DagBuilder cyc;
  cyc.add_vertex(1);
  cyc.add_vertex(1);
  cyc.add_edge(0, 1);
  cyc.add_edge(1, 0);
  EXPECT_THROW((void)cyc.build(), ContractViolation);
  EXPECT_THROW(sequentialize(Dag{}), ContractViolation);
  EXPECT_TRUE(is_transitively_reduced(Dag{}));
  EXPECT_EQ(transitive_reduction(Dag{}).num_vertices(), 0u);
}

}  // namespace
}  // namespace fedcons
