// Tests for random DAG topology generators.
#include "fedcons/gen/dag_gen.h"

#include <gtest/gtest.h>

#include "fedcons/util/check.h"

namespace fedcons {
namespace {

TEST(LayeredDagGenTest, StructurallySound) {
  Rng rng(1);
  LayeredDagParams p;
  p.min_layers = 3;
  p.max_layers = 6;
  p.min_width = 2;
  p.max_width = 5;
  for (int trial = 0; trial < 100; ++trial) {
    Dag g = generate_layered_dag(rng, p);
    EXPECT_EQ(g.topological_order().size(), g.num_vertices());
    EXPECT_GE(g.num_vertices(), 3u * 2u);
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      EXPECT_GE(g.wcet(static_cast<VertexId>(v)), p.min_wcet);
      EXPECT_LE(g.wcet(static_cast<VertexId>(v)), p.max_wcet);
    }
  }
}

TEST(LayeredDagGenTest, EveryNonFirstLayerVertexHasPredecessor) {
  Rng rng(2);
  LayeredDagParams p;
  p.min_layers = 4;
  p.max_layers = 4;
  p.min_width = 3;
  p.max_width = 3;
  p.edge_probability = 0.0;  // force reliance on the guarantee edge
  p.skip_probability = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    Dag g = generate_layered_dag(rng, p);
    // Exactly 3 sources (the first layer) — everyone else got a parent.
    std::size_t sources = 0;
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      if (g.in_degree(static_cast<VertexId>(v)) == 0) ++sources;
    }
    EXPECT_EQ(sources, 3u);
  }
}

TEST(LayeredDagGenTest, DenseEdgesIncreaseChainLength) {
  LayeredDagParams sparse;
  sparse.edge_probability = 0.05;
  sparse.skip_probability = 0.0;
  LayeredDagParams dense = sparse;
  dense.edge_probability = 1.0;
  Rng rng_a(3), rng_b(3);
  double sparse_len = 0, dense_len = 0;
  for (int i = 0; i < 50; ++i) {
    sparse_len += static_cast<double>(generate_layered_dag(rng_a, sparse).len());
    dense_len += static_cast<double>(generate_layered_dag(rng_b, dense).len());
  }
  EXPECT_GT(dense_len, sparse_len);
}

TEST(LayeredDagGenTest, ValidatesParameters) {
  Rng rng(4);
  LayeredDagParams p;
  p.min_layers = 0;
  EXPECT_THROW(generate_layered_dag(rng, p), ContractViolation);
  p = {};
  p.edge_probability = 1.5;
  EXPECT_THROW(generate_layered_dag(rng, p), ContractViolation);
  p = {};
  p.min_wcet = 0;
  EXPECT_THROW(generate_layered_dag(rng, p), ContractViolation);
}

TEST(ForkJoinGenTest, SingleSourceSingleSink) {
  Rng rng(5);
  ForkJoinParams p;
  for (int trial = 0; trial < 100; ++trial) {
    Dag g = generate_fork_join_dag(rng, p);
    EXPECT_EQ(g.topological_order().size(), g.num_vertices());
    std::size_t sources = 0, sinks = 0;
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      if (g.in_degree(static_cast<VertexId>(v)) == 0) ++sources;
      if (g.out_degree(static_cast<VertexId>(v)) == 0) ++sinks;
    }
    EXPECT_EQ(sources, 1u);
    EXPECT_EQ(sinks, 1u);
  }
}

TEST(ForkJoinGenTest, NestingGrowsWithProbability) {
  ForkJoinParams flat;
  flat.nest_probability = 0.0;
  flat.min_branches = flat.max_branches = 3;
  Rng rng(6);
  Dag g = generate_fork_join_dag(rng, flat);
  // No nesting: source + sink + 3 branches.
  EXPECT_EQ(g.num_vertices(), 5u);

  ForkJoinParams deep;
  deep.nest_probability = 1.0;
  deep.max_depth = 3;
  deep.min_branches = deep.max_branches = 2;
  Rng rng2(7);
  Dag g2 = generate_fork_join_dag(rng2, deep);
  EXPECT_GT(g2.num_vertices(), 5u);
  EXPECT_EQ(g2.topological_order().size(), g2.num_vertices());
}

TEST(ForkJoinGenTest, ValidatesParameters) {
  Rng rng(8);
  ForkJoinParams p;
  p.max_depth = 0;
  EXPECT_THROW(generate_fork_join_dag(rng, p), ContractViolation);
  p = {};
  p.min_branches = 0;
  EXPECT_THROW(generate_fork_join_dag(rng, p), ContractViolation);
}

TEST(RescaleVolumeTest, HitsTargetApproximately) {
  Rng rng(9);
  LayeredDagParams p;
  for (int trial = 0; trial < 50; ++trial) {
    Dag g = generate_layered_dag(rng, p);
    Time target = g.vol() * 3;
    Dag scaled = rescale_volume(g, target);
    EXPECT_EQ(scaled.num_vertices(), g.num_vertices());
    EXPECT_EQ(scaled.num_edges(), g.num_edges());
    // Rounding error at most one tick per vertex.
    EXPECT_LE(std::abs(scaled.vol() - target),
              static_cast<Time>(g.num_vertices()));
  }
}

TEST(RescaleVolumeTest, DownscaleKeepsUnitMinimum) {
  Dag scaled = rescale_volume(DagBuilder{}.vertices({100, 1}).build(), 2);
  EXPECT_GE(scaled.wcet(0), 1);
  EXPECT_GE(scaled.wcet(1), 1);
}

TEST(RescaleVolumeTest, ValidatesTarget) {
  const Dag g = DagBuilder{}.vertices({5, 5}).build();
  EXPECT_THROW(rescale_volume(g, 1), ContractViolation);  // below |V|
  EXPECT_THROW(rescale_volume(Dag{}, 5), ContractViolation);
}

}  // namespace
}  // namespace fedcons
