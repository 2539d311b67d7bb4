// Tests for end-to-end random task-system generation.
#include "fedcons/gen/taskset_gen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fedcons/core/io.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

TEST(TasksetGenTest, ProducesRequestedTaskCount) {
  Rng rng(1);
  TaskSetParams p;
  p.num_tasks = 12;
  TaskSystem sys = generate_task_system(rng, p);
  EXPECT_EQ(sys.size(), 12u);
}

TEST(TasksetGenTest, SystemsAreConstrainedDeadline) {
  Rng rng(2);
  TaskSetParams p;
  p.num_tasks = 10;
  p.total_utilization = 4.0;
  p.utilization_cap = 6.0;
  for (int trial = 0; trial < 40; ++trial) {
    TaskSystem sys = generate_task_system(rng, p);
    EXPECT_NE(sys.deadline_class(), DeadlineClass::kArbitrary);
    for (const auto& t : sys) {
      EXPECT_LE(t.deadline(), t.period());
      EXPECT_LE(t.len(), t.deadline()) << "generator must keep len ≤ D";
    }
  }
}

TEST(TasksetGenTest, UtilizationNearTarget) {
  Rng rng(3);
  TaskSetParams p;
  p.num_tasks = 8;
  p.total_utilization = 3.0;
  p.utilization_cap = 4.0;
  double sum = 0;
  const int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    GenerationInfo info;
    TaskSystem sys = generate_task_system(rng, p, &info);
    sum += info.achieved_utilization;
    // Integer rounding distorts each task by at most ~|V| ticks over a
    // period of ≥ 100, so the aggregate stays close.
    EXPECT_NEAR(info.achieved_utilization, 3.0, 0.5);
  }
  EXPECT_NEAR(sum / kTrials, 3.0, 0.15);
}

TEST(TasksetGenTest, DeadlineRatioRangeRespected) {
  Rng rng(4);
  TaskSetParams p;
  p.num_tasks = 10;
  p.deadline_ratio_min = 0.9;
  p.deadline_ratio_max = 1.0;
  GenerationInfo info;
  TaskSystem sys = generate_task_system(rng, p, &info);
  for (const auto& t : sys) {
    // Unless clamped by len, D/T ≥ ~0.9.
    double ratio = static_cast<double>(t.deadline()) /
                   static_cast<double>(t.period());
    EXPECT_GE(ratio, 0.85);
  }
}

TEST(TasksetGenTest, TopologiesSelectable) {
  Rng rng(5);
  TaskSetParams p;
  p.num_tasks = 5;
  p.topology = DagTopology::kForkJoin;
  TaskSystem sys = generate_task_system(rng, p);
  for (const auto& t : sys) {
    std::size_t sources = 0;
    for (std::size_t v = 0; v < t.graph().num_vertices(); ++v) {
      if (t.graph().in_degree(static_cast<VertexId>(v)) == 0) ++sources;
    }
    EXPECT_EQ(sources, 1u) << "fork-join graphs have a unique source";
  }
  EXPECT_STREQ(to_string(DagTopology::kLayered), "layered");
  EXPECT_STREQ(to_string(DagTopology::kForkJoin), "fork-join");
  EXPECT_STREQ(to_string(DagTopology::kMixed), "mixed");
}

TEST(TasksetGenTest, DeterministicGivenSeed) {
  TaskSetParams p;
  p.num_tasks = 6;
  Rng a(42), b(42);
  TaskSystem s1 = generate_task_system(a, p);
  TaskSystem s2 = generate_task_system(b, p);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].vol(), s2[i].vol());
    EXPECT_EQ(s1[i].len(), s2[i].len());
    EXPECT_EQ(s1[i].deadline(), s2[i].deadline());
    EXPECT_EQ(s1[i].period(), s2[i].period());
  }
}

/// FNV-1a over the bytes of `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(TasksetGenTest, GeneratedSystemsArePinned) {
  // Every campaign, preset and benchmark input is drawn through this path,
  // so any change to an Rng draw or to a generator's use of the draws moves
  // a digest here. The constants were captured from the generators as
  // first pinned; update them only for a deliberate change of inputs.
  struct Pin {
    DagTopology topology;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {DagTopology::kLayered, 1, 0xf0a1c8aa66034a7cull},
      {DagTopology::kLayered, 2, 0x03815a496994b6deull},
      {DagTopology::kForkJoin, 1, 0xae274fa31e494badull},
      {DagTopology::kForkJoin, 2, 0x1791f85397fc8be4ull},
      {DagTopology::kMixed, 1, 0x412f8672605fb2ceull},
      {DagTopology::kMixed, 2, 0x39ee75afdc746a66ull},
  };
  for (const Pin& pin : pins) {
    TaskSetParams p;
    p.topology = pin.topology;
    Rng rng(pin.seed);
    const std::string text =
        serialize_task_system(generate_task_system(rng, p));
    EXPECT_EQ(fnv1a(text), pin.digest)
        << to_string(pin.topology) << " seed " << pin.seed << " 0x"
        << std::hex << fnv1a(text);
  }
}

TEST(TasksetGenTest, HighUtilizationYieldsHighDensityTasks) {
  Rng rng(6);
  TaskSetParams p;
  p.num_tasks = 4;
  p.total_utilization = 6.0;
  p.utilization_cap = 3.0;
  int saw_high = 0;
  for (int trial = 0; trial < 20; ++trial) {
    TaskSystem sys = generate_task_system(rng, p);
    if (!sys.high_density_tasks().empty()) ++saw_high;
  }
  EXPECT_GT(saw_high, 10) << "U/n = 1.5 per task should often exceed δ = 1";
}

TEST(TasksetGenTest, ValidatesParameters) {
  Rng rng(7);
  TaskSetParams p;
  p.num_tasks = 0;
  EXPECT_THROW(generate_task_system(rng, p), ContractViolation);
  p = {};
  p.deadline_ratio_max = 1.5;
  EXPECT_THROW(generate_task_system(rng, p), ContractViolation);
  p = {};
  p.period_max = p.period_min - 1;
  EXPECT_THROW(generate_task_system(rng, p), ContractViolation);
}

}  // namespace
}  // namespace fedcons
