// Tests for the DAG workload structure: metrics, validation, and queries.
#include "fedcons/core/dag.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "fedcons/util/check.h"

namespace fedcons {
namespace {

Dag diamond() {
  // v0(2) → {v1(3), v2(5)} → v3(1)
  Dag g;
  g.add_vertex(2);
  g.add_vertex(3);
  g.add_vertex(5);
  g.add_vertex(1);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(DagTest, EmptyGraph) {
  Dag g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_EQ(g.vol(), 0);
  EXPECT_EQ(g.len(), 0);
  EXPECT_EQ(g.width(), 0u);
}

TEST(DagTest, VertexWcetValidation) {
  Dag g;
  EXPECT_THROW(g.add_vertex(0), ContractViolation);
  EXPECT_THROW(g.add_vertex(-5), ContractViolation);
  EXPECT_EQ(g.add_vertex(1), 0u);
  EXPECT_EQ(g.wcet(0), 1);
  EXPECT_THROW(g.wcet(1), ContractViolation);
}

TEST(DagTest, EdgeValidation) {
  Dag g;
  g.add_vertex(1);
  g.add_vertex(1);
  EXPECT_THROW(g.add_edge(0, 0), ContractViolation);  // self-loop
  EXPECT_THROW(g.add_edge(0, 5), ContractViolation);  // bad id
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1), ContractViolation);  // duplicate
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DagTest, CycleDetected) {
  Dag g;
  g.add_vertex(1);
  g.add_vertex(1);
  g.add_vertex(1);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(g.is_acyclic());
  EXPECT_THROW(g.len(), ContractViolation);
  EXPECT_THROW(g.topological_order(), ContractViolation);
}

TEST(DagTest, DiamondMetrics) {
  Dag g = diamond();
  EXPECT_EQ(g.vol(), 11);
  EXPECT_EQ(g.len(), 8);  // 2 + 5 + 1 along v0→v2→v3
  EXPECT_EQ(g.width(), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
}

TEST(DagTest, TopologicalOrderRespectsEdgesAndIsDeterministic) {
  Dag g = diamond();
  const auto& topo = g.topological_order();
  ASSERT_EQ(topo.size(), 4u);
  auto pos = [&](VertexId v) {
    return std::find(topo.begin(), topo.end(), v) - topo.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
  // Deterministic Kahn with min-id tie-break: 0, 1, 2, 3.
  EXPECT_EQ(topo, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(DagTest, TopAndBottomLevels) {
  Dag g = diamond();
  EXPECT_EQ(g.top_level(0), 2);
  EXPECT_EQ(g.top_level(1), 5);
  EXPECT_EQ(g.top_level(2), 7);
  EXPECT_EQ(g.top_level(3), 8);
  EXPECT_EQ(g.bottom_level(0), 8);
  EXPECT_EQ(g.bottom_level(1), 4);
  EXPECT_EQ(g.bottom_level(2), 6);
  EXPECT_EQ(g.bottom_level(3), 1);
}

TEST(DagTest, CriticalPath) {
  Dag g = diamond();
  auto path = g.critical_path();
  EXPECT_EQ(path, (std::vector<VertexId>{0, 2, 3}));
  Time sum = 0;
  for (VertexId v : path) sum += g.wcet(v);
  EXPECT_EQ(sum, g.len());
}

TEST(DagTest, CriticalPathOnChain) {
  Dag g;
  g.add_vertex(4);
  g.add_vertex(5);
  g.add_vertex(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.len(), 15);
  EXPECT_EQ(g.vol(), 15);
  EXPECT_EQ(g.width(), 1u);
  EXPECT_EQ(g.critical_path(), (std::vector<VertexId>{0, 1, 2}));
}

TEST(DagTest, Reachability) {
  Dag g = diamond();
  EXPECT_TRUE(g.reaches(0, 3));
  EXPECT_TRUE(g.reaches(0, 1));
  EXPECT_FALSE(g.reaches(1, 2));
  EXPECT_FALSE(g.reaches(3, 0));
  EXPECT_FALSE(g.reaches(0, 0));  // non-empty path required, no cycle
}

TEST(DagTest, WidthOfIndependentSet) {
  Dag g;
  for (int i = 0; i < 6; ++i) g.add_vertex(1);
  EXPECT_EQ(g.width(), 6u);
  EXPECT_EQ(g.len(), 1);
  EXPECT_EQ(g.vol(), 6);
}

TEST(DagTest, WidthOfForkJoin) {
  // src → 4 branches → sink: the four branches form the max antichain.
  Dag g;
  VertexId src = g.add_vertex(1);
  VertexId sink = g.add_vertex(1);
  for (int i = 0; i < 4; ++i) {
    VertexId b = g.add_vertex(2);
    g.add_edge(src, b);
    g.add_edge(b, sink);
  }
  EXPECT_EQ(g.width(), 4u);
  EXPECT_EQ(g.len(), 4);
}

TEST(DagTest, MutationInvalidatesCaches) {
  Dag g;
  g.add_vertex(3);
  EXPECT_EQ(g.len(), 3);
  // Only vol/len have run so far; the level arrays are built on demand.
  EXPECT_EQ(g.top_level(0), 3);
  EXPECT_EQ(g.bottom_level(0), 3);
  VertexId v = g.add_vertex(4);
  g.add_edge(0, v);
  EXPECT_EQ(g.len(), 7);
  EXPECT_EQ(g.vol(), 7);
  // vol/len are fresh again, the levels are not: they rebuild on demand.
  EXPECT_EQ(g.topological_order(), (std::vector<VertexId>{0, v}));
  EXPECT_EQ(g.bottom_level(0), 7);
  EXPECT_EQ(g.top_level(v), 7);
  EXPECT_EQ(g.critical_path(), (std::vector<VertexId>{0, v}));
  // A mutation after the levels were read, queried levels-first this time.
  VertexId w = g.add_vertex(2);
  g.add_edge(w, 0);
  EXPECT_EQ(g.topological_order(), (std::vector<VertexId>{w, 0, v}));
  EXPECT_EQ(g.bottom_level(w), 9);
  EXPECT_EQ(g.top_level(v), 9);
  EXPECT_EQ(g.critical_path(), (std::vector<VertexId>{w, 0, v}));
  EXPECT_EQ(g.len(), 9);
  EXPECT_EQ(g.vol(), 9);
  // A shortcut edge is dropped by the rebuilt transitive reduction.
  g.add_edge(w, v);
  ASSERT_EQ(g.reduced_successors(w).size(), 1u);
  EXPECT_EQ(g.reduced_successors(w)[0], 0u);
  EXPECT_EQ(g.width(), 1u);
}

TEST(DagTest, DotExportMentionsAllElements) {
  Dag g = diamond();
  std::string dot = g.to_dot("d");
  EXPECT_NE(dot.find("digraph d"), std::string::npos);
  EXPECT_NE(dot.find("v0"), std::string::npos);
  EXPECT_NE(dot.find("v3"), std::string::npos);
  EXPECT_NE(dot.find("v0 -> v2"), std::string::npos);
  EXPECT_NE(dot.find("e=5"), std::string::npos);
}

TEST(DagTest, LenLessOrEqualVol) {
  Dag g = diamond();
  EXPECT_LE(g.len(), g.vol());
}

TEST(DagTest, SpanAccessors) {
  Dag g = diamond();
  auto succ = g.successors(0);
  EXPECT_EQ(succ.size(), 2u);
  auto pred = g.predecessors(3);
  EXPECT_EQ(pred.size(), 2u);
  EXPECT_THROW(g.successors(9), ContractViolation);
}

TEST(DagTest, ReducedSuccessorsDropsTransitiveEdges) {
  // Chain 0→1→2 with shortcut 0→2, plus 0→3 where 3 is only reachable
  // directly: the shortcut is redundant, the direct edge is not.
  Dag g;
  for (int i = 0; i < 4; ++i) g.add_vertex(1);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);  // transitively implied via 1
  g.add_edge(0, 3);
  auto red0 = g.reduced_successors(0);
  EXPECT_EQ(std::vector<VertexId>(red0.begin(), red0.end()),
            (std::vector<VertexId>{1, 3}));
  auto red1 = g.reduced_successors(1);
  EXPECT_EQ(std::vector<VertexId>(red1.begin(), red1.end()),
            (std::vector<VertexId>{2}));
  EXPECT_THROW(g.reduced_successors(9), ContractViolation);
}

TEST(DagTest, ReducedSuccessorsKeepsDiamondIntact) {
  // No edge of the diamond is transitively implied.
  Dag g = diamond();
  for (VertexId v = 0; v < 4; ++v) {
    auto full = g.successors(v);
    auto red = g.reduced_successors(v);
    EXPECT_EQ(std::vector<VertexId>(red.begin(), red.end()),
              std::vector<VertexId>(full.begin(), full.end()));
  }
}

TEST(DagTest, ReducedSuccessorsPreservesReachability) {
  // A denser graph: every removed edge must still have a directed path.
  Dag g;
  for (int i = 0; i < 6; ++i) g.add_vertex(1);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 4);  // implied via 0→1→4
  g.add_edge(1, 3);
  g.add_edge(1, 4);
  g.add_edge(2, 3);
  g.add_edge(3, 5);
  g.add_edge(2, 5);  // implied via 2→3→5
  g.add_edge(0, 5);  // implied via 0→1→3→5
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId s : g.successors(u)) {
      bool reachable = false;
      for (VertexId r : g.reduced_successors(u)) {
        if (r == s || g.reaches(r, s)) reachable = true;
      }
      EXPECT_TRUE(reachable) << "edge " << u << "->" << s;
    }
    // Reduction is a subset of the original edges.
    for (VertexId r : g.reduced_successors(u)) {
      EXPECT_TRUE(g.has_edge(u, r));
    }
  }
}

TEST(DagTest, ReducedSuccessorsSizeGateReturnsOriginalLists) {
  // Past kMaxReductionVertices the bitset build is skipped: the "reduction"
  // is defined as the original lists (still a sound over-approximation).
  Dag g;
  const auto n = static_cast<VertexId>(Dag::kMaxReductionVertices + 2);
  for (VertexId i = 0; i < n; ++i) g.add_vertex(1);
  for (VertexId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.add_edge(0, 2);  // transitive, but kept by the gated path
  auto red = g.reduced_successors(0);
  EXPECT_EQ(std::vector<VertexId>(red.begin(), red.end()),
            (std::vector<VertexId>{1, 2}));
}

TEST(DagTest, ReducedSuccessorsInvalidatedByMutation) {
  Dag g;
  for (int i = 0; i < 3; ++i) g.add_vertex(1);
  g.add_edge(0, 2);
  EXPECT_EQ(g.reduced_successors(0).size(), 1u);
  // Adding 0→1→2 makes the cached 0→2 redundant; the cache must rebuild.
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto red = g.reduced_successors(0);
  EXPECT_EQ(std::vector<VertexId>(red.begin(), red.end()),
            (std::vector<VertexId>{1}));
}

}  // namespace
}  // namespace fedcons
