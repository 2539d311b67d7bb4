// Tests for the DAG workload structure: metrics, validation, and queries.
#include "fedcons/core/dag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "fedcons/util/check.h"

namespace fedcons {
namespace {

Dag diamond() {
  // v0(2) → {v1(3), v2(5)} → v3(1)
  DagBuilder g;
  g.add_vertex(2);
  g.add_vertex(3);
  g.add_vertex(5);
  g.add_vertex(1);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g.build();
}

std::vector<VertexId> list(std::span<const VertexId> s) {
  return {s.begin(), s.end()};
}

TEST(DagTest, EmptyGraph) {
  Dag g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.topological_order().empty());
  EXPECT_EQ(g.vol(), 0);
  EXPECT_EQ(g.len(), 0);
  EXPECT_EQ(g.width(), 0u);
}

TEST(DagTest, VertexWcetValidation) {
  DagBuilder b;
  EXPECT_THROW(b.add_vertex(0), ContractViolation);
  EXPECT_THROW(b.add_vertex(-5), ContractViolation);
  EXPECT_EQ(b.add_vertex(1), 0u);
  const Dag g = b.build();
  EXPECT_EQ(g.wcet(0), 1);
  EXPECT_THROW(g.wcet(1), ContractViolation);
}

TEST(DagTest, EdgeValidation) {
  DagBuilder b;
  b.add_vertex(1);
  b.add_vertex(1);
  EXPECT_THROW(b.add_edge(0, 0), ContractViolation);  // self-loop
  EXPECT_THROW(b.add_edge(0, 5), ContractViolation);  // bad id
  b.add_edge(0, 1);
  EXPECT_THROW(b.add_edge(0, 1), ContractViolation);  // duplicate
  EXPECT_TRUE(b.has_edge(0, 1));
  EXPECT_FALSE(b.has_edge(1, 0));
  EXPECT_EQ(b.num_edges(), 1u);
  const Dag g = b.build();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DagTest, CycleDetected) {
  // A cycle never becomes a Dag: build() rejects it and empties the builder.
  DagBuilder b;
  b.add_vertex(1);
  b.add_vertex(1);
  b.add_vertex(1);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  EXPECT_THROW((void)b.build(), ContractViolation);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.num_edges(), 0u);
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
  const Dag g = DagBuilder{}.vertices({4, 5, 6}).edge(0, 1).edge(1, 2).build();
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
  DagBuilder b;
  for (int i = 0; i < 6; ++i) b.add_vertex(1);
  const Dag g = b.build();
  EXPECT_EQ(g.width(), 6u);
  EXPECT_EQ(g.len(), 1);
  EXPECT_EQ(g.vol(), 6);
}

TEST(DagTest, WidthOfForkJoin) {
  // src → 4 branches → sink: the four branches form the max antichain.
  DagBuilder builder;
  VertexId src = builder.add_vertex(1);
  VertexId sink = builder.add_vertex(1);
  for (int i = 0; i < 4; ++i) {
    VertexId b = builder.add_vertex(2);
    builder.add_edge(src, b);
    builder.add_edge(b, sink);
  }
  const Dag g = builder.build();
  EXPECT_EQ(g.width(), 4u);
  EXPECT_EQ(g.len(), 4);
}

TEST(DagTest, MutationInvalidatesCaches) {
  // The one mutation a frozen Dag allows is appending an isolated vertex;
  // it must drop every derived result read before it.
  Dag g = DagBuilder{}.vertices({3, 4}).edge(0, 1).build();
  EXPECT_EQ(g.len(), 7);
  EXPECT_EQ(g.top_level(1), 7);
  EXPECT_EQ(g.bottom_level(0), 7);
  EXPECT_EQ(g.topological_order(), (std::vector<VertexId>{0, 1}));
  const VertexId w = g.add_vertex(9);
  EXPECT_EQ(w, 2u);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.vol(), 16);
  EXPECT_EQ(g.len(), 9);
  EXPECT_EQ(g.topological_order(), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(g.top_level(w), 9);
  EXPECT_EQ(g.bottom_level(w), 9);
  EXPECT_EQ(g.critical_path(), (std::vector<VertexId>{w}));
  EXPECT_EQ(list(g.successors(0)), (std::vector<VertexId>{1}));
  EXPECT_EQ(list(g.predecessors(1)), (std::vector<VertexId>{0}));
  EXPECT_TRUE(g.successors(w).empty());
  EXPECT_TRUE(g.predecessors(w).empty());
  EXPECT_EQ(g.width(), 2u);
  EXPECT_THROW(g.add_vertex(0), ContractViolation);
  // Growing the empty graph works the same way.
  Dag single;
  EXPECT_EQ(single.add_vertex(5), 0u);
  EXPECT_EQ(single.len(), 5);
  EXPECT_TRUE(single.successors(0).empty());
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
  DagBuilder b;
  for (int i = 0; i < 4; ++i) b.add_vertex(1);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);  // transitively implied via 1
  b.add_edge(0, 3);
  const Dag g = b.build();
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
  DagBuilder b;
  for (int i = 0; i < 6; ++i) b.add_vertex(1);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 4);  // implied via 0→1→4
  b.add_edge(1, 3);
  b.add_edge(1, 4);
  b.add_edge(2, 3);
  b.add_edge(3, 5);
  b.add_edge(2, 5);  // implied via 2→3→5
  b.add_edge(0, 5);  // implied via 0→1→3→5
  const Dag g = b.build();
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
  DagBuilder b;
  const auto n = static_cast<VertexId>(Dag::kMaxReductionVertices + 2);
  for (VertexId i = 0; i < n; ++i) b.add_vertex(1);
  for (VertexId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  b.add_edge(0, 2);  // transitive, but kept by the gated path
  const Dag g = b.build();
  auto red = g.reduced_successors(0);
  EXPECT_EQ(std::vector<VertexId>(red.begin(), red.end()),
            (std::vector<VertexId>{1, 2}));
}

TEST(DagTest, ReducedSuccessorsInvalidatedByMutation) {
  Dag g = DagBuilder{}.vertices({1, 1, 1}).edge(0, 1).edge(1, 2).edge(0, 2)
              .build();
  EXPECT_EQ(list(g.reduced_successors(0)), (std::vector<VertexId>{1}));
  // An appended vertex must not leave the cached reduction sized for the
  // old graph; the rebuilt one still drops the shortcut.
  const VertexId w = g.add_vertex(1);
  EXPECT_TRUE(g.reduced_successors(w).empty());
  EXPECT_EQ(list(g.reduced_successors(0)), (std::vector<VertexId>{1}));
  EXPECT_EQ(list(g.reduced_successors(1)), (std::vector<VertexId>{2}));
}

TEST(DagTest, CsrKeepsInsertionOrder) {
  // Edges added out of id order: each vertex's successor and predecessor
  // list must come back in the order its edges were added.
  DagBuilder b;
  for (int i = 0; i < 5; ++i) b.add_vertex(i + 1);
  b.add_edge(3, 4);
  b.add_edge(0, 4);
  b.add_edge(0, 2);
  b.add_edge(2, 4);
  b.add_edge(0, 1);
  b.add_edge(1, 3);
  const Dag g = b.build();
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(list(g.successors(0)), (std::vector<VertexId>{4, 2, 1}));
  EXPECT_EQ(list(g.successors(1)), (std::vector<VertexId>{3}));
  EXPECT_EQ(list(g.successors(2)), (std::vector<VertexId>{4}));
  EXPECT_EQ(list(g.successors(3)), (std::vector<VertexId>{4}));
  EXPECT_TRUE(g.successors(4).empty());
  EXPECT_EQ(list(g.predecessors(4)), (std::vector<VertexId>{3, 0, 2}));
  EXPECT_EQ(list(g.predecessors(3)), (std::vector<VertexId>{1}));
  EXPECT_TRUE(g.predecessors(0).empty());
  EXPECT_EQ(g.in_degree(4), 3u);
  EXPECT_EQ(g.out_degree(0), 3u);
  EXPECT_EQ(g.vol(), 15);
  EXPECT_EQ(g.len(), 1 + 2 + 4 + 5);
  // Copies (and moves) carry the arrays and any derived result read so far.
  EXPECT_EQ(g.bottom_level(0), 12);
  const Dag copy = g;
  EXPECT_EQ(list(copy.predecessors(4)), (std::vector<VertexId>{3, 0, 2}));
  EXPECT_EQ(copy.bottom_level(0), 12);
  EXPECT_EQ(copy.topological_order(), g.topological_order());
}

TEST(DagTest, WithWcetsKeepsStructure) {
  DagBuilder b;
  for (int i = 0; i < 4; ++i) b.add_vertex(1);
  b.add_edge(2, 3);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  const Dag g = b.build();
  EXPECT_EQ(g.len(), 2);
  const Dag h = g.with_wcets({4, 3, 2, 1});
  EXPECT_EQ(h.num_vertices(), 4u);
  EXPECT_EQ(h.num_edges(), 3u);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(list(h.successors(v)), list(g.successors(v)));
    EXPECT_EQ(list(h.predecessors(v)), list(g.predecessors(v)));
    EXPECT_EQ(h.wcet(v), static_cast<Time>(4 - v));
  }
  EXPECT_EQ(h.vol(), 10);
  EXPECT_EQ(h.len(), 7);  // v0 → v1
  EXPECT_EQ(h.critical_path(), (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(g.wcet(0), 1);  // the source is untouched
  EXPECT_THROW((void)g.with_wcets({1, 1, 1}), ContractViolation);
  EXPECT_THROW((void)g.with_wcets({1, 1, 1, 1, 1}), ContractViolation);
  EXPECT_THROW((void)g.with_wcets({1, 0, 1, 1}), ContractViolation);
  EXPECT_THROW((void)g.with_wcets({1, 1, -2, 1}), ContractViolation);
}

}  // namespace
}  // namespace fedcons
