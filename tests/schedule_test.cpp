// Tests for TemplateSchedule construction and validation.
#include "fedcons/listsched/schedule.h"

#include <gtest/gtest.h>

#include "fedcons/util/check.h"

namespace fedcons {
namespace {

Dag two_vertex_chain() {
  DagBuilder g;
  g.add_vertex(3);
  g.add_vertex(2);
  g.add_edge(0, 1);
  return g.build();
}

TEST(TemplateScheduleTest, BasicsAndMakespan) {
  TemplateSchedule s(2, {{0, 0, 0, 3}, {1, 1, 3, 5}});
  EXPECT_EQ(s.num_processors(), 2);
  EXPECT_EQ(s.num_jobs(), 2u);
  EXPECT_EQ(s.makespan(), 5);
  EXPECT_EQ(s.job_for(0).finish, 3);
  EXPECT_EQ(s.job_for(1).processor, 1);
}

TEST(TemplateScheduleTest, RejectsMalformedSlots) {
  EXPECT_THROW(TemplateSchedule(0, {}), ContractViolation);
  EXPECT_THROW(TemplateSchedule(1, {{0, 0, -1, 2}}), ContractViolation);
  EXPECT_THROW(TemplateSchedule(1, {{0, 0, 5, 3}}), ContractViolation);
  EXPECT_THROW(TemplateSchedule(1, {{0, 1, 0, 2}}), ContractViolation);
  EXPECT_THROW(TemplateSchedule(1, {{0, -1, 0, 2}}), ContractViolation);
  EXPECT_THROW(TemplateSchedule(1, {{0, 0, 0, 2}, {0, 0, 2, 4}}),
               ContractViolation);  // duplicate vertex
}

TEST(TemplateScheduleTest, JobForUnknownVertexThrows) {
  TemplateSchedule s(1, {{0, 0, 0, 1}});
  EXPECT_THROW(s.job_for(3), ContractViolation);
}

TEST(TemplateScheduleTest, ValidateAgainstAcceptsCorrect) {
  Dag g = two_vertex_chain();
  TemplateSchedule s(1, {{0, 0, 0, 3}, {1, 0, 3, 5}});
  EXPECT_TRUE(s.validate_against(g));
}

TEST(TemplateScheduleTest, ValidateRejectsWrongDuration) {
  Dag g = two_vertex_chain();
  TemplateSchedule s(1, {{0, 0, 0, 2}, {1, 0, 2, 4}});  // v0 needs 3
  EXPECT_FALSE(s.validate_against(g));
}

TEST(TemplateScheduleTest, ValidateRejectsPrecedenceViolation) {
  Dag g = two_vertex_chain();
  // v1 starts before v0 finishes.
  TemplateSchedule s(2, {{0, 0, 0, 3}, {1, 1, 1, 3}});
  EXPECT_FALSE(s.validate_against(g));
}

TEST(TemplateScheduleTest, ValidateRejectsProcessorOverlap) {
  const Dag g = DagBuilder{}.vertices({3, 3}).build();
  TemplateSchedule s(1, {{0, 0, 0, 3}, {1, 0, 2, 5}});
  EXPECT_FALSE(s.validate_against(g));
}

TEST(TemplateScheduleTest, ValidateRejectsVertexMismatch) {
  Dag g = two_vertex_chain();
  TemplateSchedule s(1, {{0, 0, 0, 3}});  // missing v1
  EXPECT_FALSE(s.validate_against(g));
}

TEST(TemplateScheduleTest, OccupancyComputation) {
  // 2 processors, makespan 4, total work 6 → 6 / 8 = 0.75.
  TemplateSchedule s(2, {{0, 0, 0, 4}, {1, 1, 0, 2}});
  EXPECT_DOUBLE_EQ(s.occupancy(), 0.75);
}

TEST(TemplateScheduleTest, EmptyScheduleOccupancyZero) {
  TemplateSchedule s(1, {});
  EXPECT_EQ(s.makespan(), 0);
  EXPECT_DOUBLE_EQ(s.occupancy(), 0.0);
}

}  // namespace
}  // namespace fedcons
