// Tests for Graham list scheduling: structural validity, bounds, policies.
#include "fedcons/listsched/list_scheduler.h"

#include <gtest/gtest.h>

#include <array>

#include "fedcons/core/builders.h"
#include "fedcons/gen/dag_gen.h"
#include "fedcons/util/check.h"
#include "fedcons/util/rng.h"
#include "reference/reference.h"

namespace fedcons {
namespace {

TEST(ListSchedulerTest, SingleVertex) {
  Dag g;
  g.add_vertex(5);
  TemplateSchedule s = list_schedule(g, 3);
  EXPECT_EQ(s.makespan(), 5);
  EXPECT_EQ(s.num_jobs(), 1u);
  EXPECT_TRUE(s.validate_against(g));
}

TEST(ListSchedulerTest, ChainUsesOneProcessorFully) {
  std::array<Time, 3> w{2, 3, 4};
  Dag g = make_chain(w);
  TemplateSchedule s = list_schedule(g, 4);
  EXPECT_EQ(s.makespan(), 9);  // no parallelism available
  EXPECT_TRUE(s.validate_against(g));
}

TEST(ListSchedulerTest, IndependentJobsPackPerfectlyWhenDivisible) {
  std::array<Time, 4> w{3, 3, 3, 3};
  Dag g = make_independent(w);
  EXPECT_EQ(list_schedule(g, 4).makespan(), 3);
  EXPECT_EQ(list_schedule(g, 2).makespan(), 6);
  EXPECT_EQ(list_schedule(g, 1).makespan(), 12);
}

TEST(ListSchedulerTest, ForkJoinMakespan) {
  std::array<Time, 2> branches{4, 4};
  Dag g = make_fork_join(1, branches, 1);
  // With 2 processors both branches run in parallel: 1 + 4 + 1.
  EXPECT_EQ(list_schedule(g, 2).makespan(), 6);
  // With 1 processor everything serializes: vol = 10.
  EXPECT_EQ(list_schedule(g, 1).makespan(), 10);
}

TEST(ListSchedulerTest, PaperExampleOnTwoProcessors) {
  DagTask t = make_paper_example_task();
  TemplateSchedule s = list_schedule(t.graph(), 2);
  EXPECT_TRUE(s.validate_against(t.graph()));
  // vol = 9, len = 6: two processors finish within the Graham bound and at
  // or above the area/critical-path lower bound.
  EXPECT_GE(s.makespan(), makespan_lower_bound(t.graph(), 2));
  EXPECT_LE(s.makespan(), graham_bound(t.graph(), 2));
  EXPECT_LE(s.makespan(), t.deadline());
}

TEST(ListSchedulerTest, RejectsBadArguments) {
  Dag g;
  EXPECT_THROW(list_schedule(g, 1), ContractViolation);  // empty
  g.add_vertex(1);
  EXPECT_THROW(list_schedule(g, 0), ContractViolation);
}

TEST(ListSchedulerTest, ExecTimesValidated) {
  Dag g;
  g.add_vertex(4);
  std::array<Time, 1> too_big{5};
  EXPECT_THROW(list_schedule_with_exec_times(g, 1, too_big),
               ContractViolation);
  std::array<Time, 1> zero{0};
  EXPECT_THROW(list_schedule_with_exec_times(g, 1, zero), ContractViolation);
  std::array<Time, 2> wrong_size{1, 1};
  EXPECT_THROW(list_schedule_with_exec_times(g, 1, wrong_size),
               ContractViolation);
}

TEST(ListSchedulerTest, DeterministicAcrossRuns) {
  DagTask t = make_paper_example_task();
  TemplateSchedule a = list_schedule(t.graph(), 2);
  TemplateSchedule b = list_schedule(t.graph(), 2);
  ASSERT_EQ(a.num_jobs(), b.num_jobs());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].vertex, b.jobs()[i].vertex);
    EXPECT_EQ(a.jobs()[i].processor, b.jobs()[i].processor);
    EXPECT_EQ(a.jobs()[i].start, b.jobs()[i].start);
  }
}

TEST(ListSchedulerTest, PolicyNamesRoundTrip) {
  EXPECT_STREQ(to_string(ListPolicy::kVertexOrder), "vertex-order");
  EXPECT_STREQ(to_string(ListPolicy::kCriticalPath), "critical-path");
  EXPECT_STREQ(to_string(ListPolicy::kLongestWcet), "longest-wcet");
}

TEST(ListSchedulerTest, CriticalPathPolicyCanBeatVertexOrder) {
  // v0 is a long job that gates nothing; v1 starts the long chain. Vertex
  // order picks v0 first and delays the chain; critical-path priority does
  // not.
  Dag g = DagBuilder{}
              .vertices({6, 1, 6, 6})  // v1→v2→v3 is the critical chain (13)
              .edge(1, 2)
              .edge(2, 3)
              .build();
  Time vo = list_schedule(g, 1, ListPolicy::kVertexOrder).makespan();
  Time cp = list_schedule(g, 1, ListPolicy::kCriticalPath).makespan();
  EXPECT_EQ(vo, cp) << "on one processor makespan is vol either way";
  Time vo2 = list_schedule(g, 2, ListPolicy::kVertexOrder).makespan();
  Time cp2 = list_schedule(g, 2, ListPolicy::kCriticalPath).makespan();
  EXPECT_LE(cp2, vo2);
}

TEST(MakespanBoundsTest, LowerBound) {
  std::array<Time, 2> branches{4, 4};
  Dag g = make_fork_join(1, branches, 1);  // vol 10, len 6
  EXPECT_EQ(makespan_lower_bound(g, 1), 10);
  EXPECT_EQ(makespan_lower_bound(g, 2), 6);
  EXPECT_EQ(makespan_lower_bound(g, 100), 6);
}

TEST(MakespanBoundsTest, GrahamBoundFormula) {
  std::array<Time, 2> branches{4, 4};
  Dag g = make_fork_join(1, branches, 1);  // vol 10, len 6
  // m = 2: floor((10 + 6)/2) = 8.
  EXPECT_EQ(graham_bound(g, 2), 8);
  // m = 1: floor(10/1) = vol.
  EXPECT_EQ(graham_bound(g, 1), 10);
}

// Property suite over random DAGs: every LS run must produce a structurally
// valid schedule whose makespan sits between the area/critical-path lower
// bound and Graham's upper bound, monotone in no particular way but bounded.
class ListSchedulerPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(ListSchedulerPropertyTest, RandomDagsRespectBounds) {
  auto [seed, procs] = GetParam();
  Rng rng(seed);
  LayeredDagParams params;
  params.max_layers = 6;
  params.max_width = 5;
  params.max_wcet = 20;
  for (int trial = 0; trial < 50; ++trial) {
    Dag g = generate_layered_dag(rng, params);
    for (ListPolicy policy :
         {ListPolicy::kVertexOrder, ListPolicy::kCriticalPath,
          ListPolicy::kLongestWcet}) {
      TemplateSchedule s = list_schedule(g, procs, policy);
      EXPECT_TRUE(s.validate_against(g));
      EXPECT_GE(s.makespan(), makespan_lower_bound(g, procs));
      EXPECT_LE(s.makespan(), graham_bound(g, procs));
    }
  }
}

TEST_P(ListSchedulerPropertyTest, ReducedExecTimesStayValid) {
  auto [seed, procs] = GetParam();
  Rng rng(seed ^ 0xfeed);
  LayeredDagParams params;
  params.max_wcet = 15;
  for (int trial = 0; trial < 30; ++trial) {
    Dag g = generate_layered_dag(rng, params);
    std::vector<Time> exec(g.num_vertices());
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      exec[v] = rng.uniform_int(1, g.wcet(static_cast<VertexId>(v)));
    }
    TemplateSchedule s = list_schedule_with_exec_times(g, procs, exec);
    EXPECT_EQ(s.num_jobs(), g.num_vertices());
    // Precedence must hold with the actual durations.
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.successors(u)) {
        EXPECT_LE(s.job_for(u).finish, s.job_for(v).start);
      }
    }
  }
}

// The workspace-backed core (list_schedule) must reproduce the reference
// implementation job for job — vertices, processors, start/finish times —
// under every policy, processor count, and the exec-times variant.
TEST_P(ListSchedulerPropertyTest, WorkspaceCoreMatchesReferenceBitForBit) {
  auto [seed, procs] = GetParam();
  Rng rng(seed ^ 0xace5u);
  LayeredDagParams params;
  params.max_layers = 6;
  params.max_width = 5;
  params.max_wcet = 20;
  for (int trial = 0; trial < 40; ++trial) {
    Dag g = generate_layered_dag(rng, params);
    for (ListPolicy policy :
         {ListPolicy::kVertexOrder, ListPolicy::kCriticalPath,
          ListPolicy::kLongestWcet}) {
      TemplateSchedule opt = list_schedule(g, procs, policy);
      TemplateSchedule ref = reference::list_schedule(g, procs, policy);
      EXPECT_EQ(opt.makespan(), ref.makespan());
      ASSERT_EQ(opt.num_jobs(), ref.num_jobs());
      for (std::size_t i = 0; i < opt.jobs().size(); ++i) {
        EXPECT_EQ(opt.jobs()[i].vertex, ref.jobs()[i].vertex);
        EXPECT_EQ(opt.jobs()[i].processor, ref.jobs()[i].processor);
        EXPECT_EQ(opt.jobs()[i].start, ref.jobs()[i].start);
        EXPECT_EQ(opt.jobs()[i].finish, ref.jobs()[i].finish);
      }
    }
  }
}

TEST_P(ListSchedulerPropertyTest, ExecTimesVariantMatchesReference) {
  auto [seed, procs] = GetParam();
  Rng rng(seed ^ 0xd09u);
  LayeredDagParams params;
  params.max_wcet = 15;
  for (int trial = 0; trial < 20; ++trial) {
    Dag g = generate_layered_dag(rng, params);
    std::vector<Time> exec(g.num_vertices());
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      exec[v] = rng.uniform_int(1, g.wcet(static_cast<VertexId>(v)));
    }
    TemplateSchedule opt = list_schedule_with_exec_times(g, procs, exec);
    TemplateSchedule ref =
        reference::list_schedule_with_exec_times(g, procs, exec);
    EXPECT_EQ(opt.makespan(), ref.makespan());
    ASSERT_EQ(opt.num_jobs(), ref.num_jobs());
    for (std::size_t i = 0; i < opt.jobs().size(); ++i) {
      EXPECT_EQ(opt.jobs()[i].vertex, ref.jobs()[i].vertex);
      EXPECT_EQ(opt.jobs()[i].processor, ref.jobs()[i].processor);
      EXPECT_EQ(opt.jobs()[i].start, ref.jobs()[i].start);
      EXPECT_EQ(opt.jobs()[i].finish, ref.jobs()[i].finish);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndProcs, ListSchedulerPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1, 2, 4, 8)));

}  // namespace
}  // namespace fedcons
