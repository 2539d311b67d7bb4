// Tests for release/execution-time sequence generation.
#include "fedcons/sim/release_generator.h"

#include <gtest/gtest.h>

#include <limits>

#include "fedcons/core/builders.h"
#include "fedcons/util/check.h"

namespace fedcons {
namespace {

TEST(ReleaseGenTest, PeriodicSpacingIsExactlyT) {
  DagTask t = make_paper_example_task();  // D 16, T 20
  SimConfig cfg;
  cfg.horizon = 200;
  Rng rng(1);
  auto rel = generate_releases(t, cfg, rng);
  // Releases at 0, 20, …, 180 (deadline 196 ≤ 200): 10 of them.
  ASSERT_EQ(rel.size(), 10u);
  for (std::size_t i = 0; i < rel.size(); ++i) {
    EXPECT_EQ(rel[i].release, static_cast<Time>(i) * 20);
  }
}

TEST(ReleaseGenTest, SporadicSpacingAtLeastT) {
  DagTask t = make_paper_example_task();
  SimConfig cfg;
  cfg.horizon = 100000;
  cfg.release = ReleaseModel::kSporadic;
  cfg.jitter_frac = 0.5;
  Rng rng(2);
  auto rel = generate_releases(t, cfg, rng);
  ASSERT_GT(rel.size(), 10u);
  bool saw_jitter = false;
  for (std::size_t i = 1; i < rel.size(); ++i) {
    Time gap = rel[i].release - rel[i - 1].release;
    EXPECT_GE(gap, t.period());
    EXPECT_LE(gap, t.period() + t.period() / 2);
    if (gap > t.period()) saw_jitter = true;
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(ReleaseGenTest, WcetModeUsesFullWcets) {
  DagTask t = make_paper_example_task();
  SimConfig cfg;
  Rng rng(3);
  auto rel = generate_releases(t, cfg, rng);
  for (const auto& job : rel) {
    ASSERT_EQ(job.exec_times.size(), t.graph().num_vertices());
    for (std::size_t v = 0; v < job.exec_times.size(); ++v) {
      EXPECT_EQ(job.exec_times[v], t.graph().wcet(static_cast<VertexId>(v)));
    }
  }
}

TEST(ReleaseGenTest, UniformExecWithinBounds) {
  DagTask t = make_paper_example_task();
  SimConfig cfg;
  cfg.exec = ExecModel::kUniform;
  cfg.exec_lo = 0.5;
  cfg.horizon = 100000;
  Rng rng(4);
  auto rel = generate_releases(t, cfg, rng);
  bool saw_reduced = false;
  for (const auto& job : rel) {
    for (std::size_t v = 0; v < job.exec_times.size(); ++v) {
      Time w = t.graph().wcet(static_cast<VertexId>(v));
      EXPECT_GE(job.exec_times[v], 1);
      EXPECT_LE(job.exec_times[v], w);
      if (job.exec_times[v] < w) saw_reduced = true;
    }
  }
  EXPECT_TRUE(saw_reduced);
}

TEST(ReleaseGenTest, DeadlinesFitHorizon) {
  DagTask t = make_paper_example_task();
  SimConfig cfg;
  cfg.horizon = 77;  // releases at 0, 20, 40, 60 have deadlines ≤ 76 ✓ 76≤77
  Rng rng(5);
  auto rel = generate_releases(t, cfg, rng);
  for (const auto& job : rel) {
    EXPECT_LE(job.release + t.deadline(), cfg.horizon);
  }
  ASSERT_FALSE(rel.empty());
  EXPECT_EQ(rel.back().release, 60);
}

TEST(ReleaseGenTest, SequentialReleases) {
  SimConfig cfg;
  cfg.horizon = 50;
  Rng rng(6);
  auto rel = generate_sequential_releases(3, 10, 15, cfg, rng);
  // Releases at 0, 15, 30 (deadline 40 ≤ 50); release 45 → deadline 55 > 50.
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel[0].abs_deadline, 10);
  EXPECT_EQ(rel[2].release, 30);
  for (const auto& j : rel) EXPECT_EQ(j.exec_time, 3);
}

TEST(ReleaseGenTest, ValidatesArguments) {
  SimConfig cfg;
  cfg.horizon = 0;
  Rng rng(7);
  EXPECT_THROW(generate_releases(make_paper_example_task(), cfg, rng),
               ContractViolation);
  SimConfig cfg2;
  cfg2.exec_lo = 0.0;
  EXPECT_THROW(generate_releases(make_paper_example_task(), cfg2, rng),
               ContractViolation);
  EXPECT_THROW(generate_sequential_releases(0, 1, 1, SimConfig{}, rng),
               ContractViolation);
  // jitter_frac · T must be a Time: casting inf or 1e300·T gave garbage, and
  // such runs simulated exactly like jitter 0.
  for (const double jitter :
       {1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    SimConfig bad;
    bad.release = ReleaseModel::kSporadic;
    bad.jitter_frac = jitter;
    EXPECT_THROW(generate_releases(make_paper_example_task(), bad, rng),
                 ContractViolation)
        << jitter;
    EXPECT_THROW(generate_sequential_releases(1, 5, 10, bad, rng),
                 ContractViolation)
        << jitter;
  }
}

}  // namespace
}  // namespace fedcons
