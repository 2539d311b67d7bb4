// Tests for the isolation property checker: the fuzzed claim that under
// enforcement no fault plan targeting one task can cost a DIFFERENT task a
// deadline, the enforcement-off cascade demonstration, thread-count
// determinism, and the pinned isolation-repro replay loop.
#include "fedcons/conform/isolation.h"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "fedcons/conform/artifact.h"
#include "fedcons/core/builders.h"
#include "fedcons/core/io.h"

namespace fedcons {
namespace {

IsolationConfig small_config(std::size_t trials, SupervisionMode mode,
                             std::uint64_t seed) {
  IsolationConfig config = default_isolation_config();
  config.trials = trials;
  config.master_seed = seed;
  config.supervision = mode;
  return config;
}

// The headline acceptance claim: 500 seeded fault plans against enforced
// systems produce ZERO cross-task misses. Target misses are allowed (a
// throttled or deferred faulty task may miss its own deadlines).
TEST(IsolationFuzzTest, EnforcementIsolatesFiveHundredTrials) {
  const IsolationConfig config =
      small_config(500, SupervisionMode::kEnforce, 1);
  const IsolationReport report = run_isolation_fuzz(config);
  EXPECT_EQ(report.trials, 500u);
  EXPECT_GT(report.admitted, 0u);
  EXPECT_TRUE(report.isolated());
  EXPECT_EQ(report.cross_misses, 0u);
  EXPECT_TRUE(report.incidents.empty());
  EXPECT_EQ(report.counters.fault_isolation_trials, 500u);
  // Faults were genuinely injected, not skipped.
  EXPECT_GT(report.counters.fault_injections, 0u);
}

// With supervision off the same harness must demonstrate the cascade the
// enforcement exists to prevent — and shrink it to a pinned witness.
TEST(IsolationFuzzTest, UnsupervisedRunsDemonstrateTheCascade) {
  const IsolationConfig config = small_config(30, SupervisionMode::kNone, 5);
  const IsolationReport report = run_isolation_fuzz(config);
  EXPECT_GT(report.cross_misses, 0u);
  ASSERT_FALSE(report.incidents.empty());
  for (const IsolationIncident& incident : report.incidents) {
    EXPECT_FALSE(incident.target.empty());
    EXPECT_FALSE(incident.system_text.empty());
    EXPECT_FALSE(incident.artifact.system_text.empty());
    EXPECT_GE(incident.artifact.m, 1);
    EXPECT_GT(incident.shrink_probes, 0u);
    // The minimized witness still parses and still targets a surviving task.
    const TaskSystem minimized =
        parse_task_system(incident.artifact.system_text);
    EXPECT_GE(minimized.size(), 2u);  // a target and at least one victim
    // The pinned artifact reproduces the violation from scratch.
    const ConformanceOutcome replay = replay_artifact(incident.artifact);
    EXPECT_TRUE(replay.supported);
    EXPECT_TRUE(replay.admitted);
    EXPECT_TRUE(replay.violation());
    // And it survives a serialize → parse → serialize round trip unchanged.
    const std::string json = to_json(incident.artifact);
    EXPECT_NE(json.find("\"schema\": \"fedcons-fault-repro-v1\""),
              std::string::npos);
    EXPECT_EQ(to_json(parse_artifact(json)), json);
  }
}

TEST(IsolationFuzzTest, ReportIsBitIdenticalAcrossThreadCounts) {
  IsolationConfig serial = small_config(30, SupervisionMode::kNone, 5);
  serial.num_threads = 1;
  IsolationConfig wide = serial;
  wide.num_threads = 8;
  const IsolationReport a = run_isolation_fuzz(serial);
  const IsolationReport b = run_isolation_fuzz(wide);
  EXPECT_EQ(isolation_report_json(a), isolation_report_json(b));
}

TEST(IsolationFuzzTest, JsonCarriesSchemaAndCounters) {
  const IsolationConfig config =
      small_config(20, SupervisionMode::kEnforce, 3);
  const IsolationReport report = run_isolation_fuzz(config);
  const std::string json = isolation_report_json(report);
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"supervision\": \"enforce\""), std::string::npos);
  EXPECT_NE(json.find("\"cross_misses\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"fault_isolation_trials\": 20"), std::string::npos);
}

TEST(IsolationEntryTest, EmptyPlanOnAdmittedSystemIsClean) {
  TaskSystem sys;
  sys.add(DagTask(make_chain(std::array<Time, 1>{1}), 10, 10, "a"));
  sys.add(DagTask(make_chain(std::array<Time, 1>{1}), 10, 10, "b"));
  const ConformanceEntry entry =
      make_isolation_entry(FaultPlan{}, SupervisionMode::kEnforce);
  SimConfig cfg;
  cfg.horizon = 200;
  const ConformanceOutcome outcome = entry.run(sys, 2, cfg);
  EXPECT_TRUE(outcome.supported);
  EXPECT_TRUE(outcome.admitted);
  EXPECT_FALSE(outcome.violation());
}

TEST(IsolationEntryTest, ArbitraryDeadlineSystemsAreUnsupported) {
  TaskSystem sys;
  sys.add(DagTask(make_chain(std::array<Time, 1>{1}), 20, 10, "late"));
  const ConformanceEntry entry =
      make_isolation_entry(FaultPlan{}, SupervisionMode::kEnforce);
  SimConfig cfg;
  cfg.horizon = 200;
  EXPECT_FALSE(entry.run(sys, 2, cfg).supported);
}

TEST(FaultArtifactTest, MalformedDocumentsThrowParseError) {
  EXPECT_THROW((void)parse_artifact("not json"), ParseError);
  EXPECT_THROW((void)parse_artifact("{\"schema\": \"wrong-schema\"}"),
               ParseError);
  // A well-formed envelope with a malformed embedded plan must also fail.
  ViolationArtifact artifact;
  artifact.fault_plan = FaultPlan{};
  artifact.system_text = "task a\n  deadline 5\n  period 5\n  vertex 1\nend\n";
  const std::string good = to_json(artifact);
  EXPECT_NO_THROW((void)parse_artifact(good));
  std::string json = good;
  const auto pos = json.find("\"plan\": \"\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 10, "\"plan\": \"bogus:1\"");
  EXPECT_THROW((void)parse_artifact(json), ParseError);
  // So must an unknown supervision mode.
  json = good;
  json.replace(json.find("\"none\""), 6, "\"lax\"");
  EXPECT_THROW((void)parse_artifact(json), ParseError);
}

// Every artifact pinned under tests/fault_corpus/ must keep reproducing its
// cross-task violation — the same promise the conformance corpus makes for
// schedulability verdicts, extended to the fault layer.
TEST(FaultCorpusTest, PinnedArtifactsStillReproduce) {
  const std::filesystem::path dir(FAULT_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir))
      << "missing corpus directory " << dir;
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << entry.path();
    std::ostringstream text;
    text << in.rdbuf();
    const ViolationArtifact artifact = parse_artifact(text.str());
    ASSERT_TRUE(artifact.fault_plan.has_value()) << entry.path();
    const ConformanceOutcome outcome = replay_artifact(artifact);
    EXPECT_TRUE(outcome.supported) << entry.path();
    EXPECT_TRUE(outcome.admitted) << entry.path();
    EXPECT_TRUE(outcome.violation())
        << entry.path() << ": pinned cascade no longer reproduces";
    ++replayed;
  }
  EXPECT_GE(replayed, 1u) << "fault corpus is empty";
}

}  // namespace
}  // namespace fedcons
