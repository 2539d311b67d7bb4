// Tests for the conformance subsystem: oracles, harness determinism, the
// shrinker, artifact round-tripping, and the anomaly demonstration.
#include "fedcons/conform/harness.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fedcons/conform/anomaly_demo.h"
#include "fedcons/conform/artifact.h"
#include "fedcons/conform/oracle.h"
#include "fedcons/conform/shrinker.h"
#include "fedcons/core/io.h"
#include "fedcons/engine/algorithms.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {
namespace {

/// The hand-crafted two-task witness refuting the literal Fig. 4 demand
/// check under utilization-descending placement: B (u = 9/16) is placed
/// first, A's single-point check at t = 9 sees DBF*(B, 9) = 0 and passes,
/// yet total demand at t = 16 is 8 + 9 = 17 > 16.
TaskSystem handcrafted_udo_witness() {
  DagBuilder a;
  a.add_vertex(8);
  DagBuilder b;
  b.add_vertex(9);
  TaskSystem s;
  s.add(DagTask(a.build(), 9, 18, "hand-A"));
  s.add(DagTask(b.build(), 16, 16, "hand-B"));
  return s;
}

SimConfig witness_sim_config() {
  SimConfig cfg;  // kAlwaysWcet, kPeriodic: the synchronous worst case
  cfg.horizon = 40;
  cfg.seed = 1;
  return cfg;
}

TEST(ConformanceEntryTest, BatteriesExposeExpectedNames) {
  // One built-in entry per row of the engine's algorithm table, and no more.
  const auto builtin = builtin_conformance_entries();
  std::set<std::string> entry_names;
  for (const auto& e : builtin) {
    EXPECT_TRUE(entry_names.insert(e.name).second) << e.name;
    EXPECT_TRUE(static_cast<bool>(e.run));
  }
  std::set<std::string> row_names;
  for (const Algorithm& a : builtin_algorithms()) row_names.insert(a.name);
  EXPECT_EQ(entry_names, row_names);
  const auto demo = demonstration_conformance_entries();
  ASSERT_EQ(demo.size(), 2u);
  // The demonstration battery must never leak into the default one.
  for (const auto& d : demo) {
    for (const auto& b : builtin) EXPECT_NE(d.name, b.name);
  }
  EXPECT_NO_THROW(find_conformance_entry("FEDCONS"));
  EXPECT_NO_THROW(find_conformance_entry("FEDCONS-lit-udo"));
  EXPECT_THROW(find_conformance_entry("no-such-entry"), ContractViolation);
}

// Each built-in entry replays exactly the systems its table row accepts.
TEST(ConformanceEntryTest, BuiltinEntriesHonourTableDeadlineClasses) {
  const auto one_task = [](Time deadline, Time period) {
    DagBuilder g;
    g.add_vertex(2);
    TaskSystem s;
    s.add(DagTask(g.build(), deadline, period, "t"));
    return s;
  };
  const TaskSystem systems[] = {one_task(10, 10), one_task(8, 10),
                                one_task(15, 10)};
  ASSERT_EQ(systems[0].deadline_class(), DeadlineClass::kImplicit);
  ASSERT_EQ(systems[1].deadline_class(), DeadlineClass::kConstrained);
  ASSERT_EQ(systems[2].deadline_class(), DeadlineClass::kArbitrary);
  SimConfig cfg;
  cfg.horizon = 100;
  for (const auto& e : builtin_conformance_entries()) {
    const Algorithm& row = find_algorithm(e.name);
    for (const TaskSystem& system : systems) {
      EXPECT_EQ(e.run(system, 2, cfg).supported, row.supports(system))
          << e.name << " on a " << to_string(system.deadline_class())
          << "-deadline system";
    }
  }
}

TEST(ConformanceEntryTest, HandcraftedWitnessRefutesLiteralUdoOnly) {
  const TaskSystem sys = handcrafted_udo_witness();
  const SimConfig cfg = witness_sim_config();

  const auto unsound = find_conformance_entry("FEDCONS-lit-udo");
  const ConformanceOutcome bad = unsound.run(sys, 1, cfg);
  EXPECT_TRUE(bad.supported);
  EXPECT_TRUE(bad.admitted);
  EXPECT_GT(bad.sim.deadline_misses, 0u);
  EXPECT_TRUE(bad.violation());

  // The sound algorithm rejects the same system (U_sum = 4/9 + 9/16 > 1).
  const auto sound = find_conformance_entry("FEDCONS");
  const ConformanceOutcome good = sound.run(sys, 1, cfg);
  EXPECT_TRUE(good.supported);
  EXPECT_FALSE(good.admitted);
  EXPECT_FALSE(good.violation());
}

TEST(ConformanceEntryTest, OutcomeViolationRequiresAllThree) {
  ConformanceOutcome o;
  EXPECT_FALSE(o.violation());
  o.supported = true;
  o.admitted = true;
  EXPECT_FALSE(o.violation());  // zero misses
  o.sim.deadline_misses = 1;
  EXPECT_TRUE(o.violation());
  o.admitted = false;
  EXPECT_FALSE(o.violation());
}

TEST(HarnessTest, BuiltinBatteryHasZeroViolations) {
  ConformConfig config = default_conform_config();
  config.trials = 200;
  config.m = 4;
  config.master_seed = 7;
  const auto entries = builtin_conformance_entries();
  const ConformReport report = run_conformance(config, entries);

  EXPECT_EQ(report.trials, 200u);
  EXPECT_EQ(report.total_violations(), 0u);
  EXPECT_TRUE(report.violations.empty());
  ASSERT_EQ(report.entries.size(), entries.size());
  std::uint64_t total_admitted = 0;
  for (const auto& e : report.entries) {
    EXPECT_EQ(e.violations, 0u) << e.name;
    EXPECT_GT(e.supported, 0u) << e.name;  // implicit_fraction gives
                                           // FED-LI-implicit real coverage
    total_admitted += e.admitted;
  }
  EXPECT_GT(total_admitted, 0u);
  // One oracle evaluation per (trial, entry) pair.
  EXPECT_EQ(report.counters.conform_trials, 200u * entries.size());
  EXPECT_EQ(report.counters.conform_violations, 0u);
}

TEST(HarnessTest, FindsAndMinimizesUnsoundEntry) {
  ConformConfig config = default_conform_config();
  config.trials = 50;
  config.master_seed = 3;
  std::vector<ConformanceEntry> entries;
  entries.push_back(find_conformance_entry("FEDCONS-lit-udo"));
  const ConformReport report = run_conformance(config, entries);

  EXPECT_GT(report.total_violations(), 0u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.counters.conform_violations, report.total_violations());
  EXPECT_GT(report.counters.conform_shrink_steps, 0u);

  for (const auto& v : report.violations) {
    EXPECT_EQ(v.algorithm, "FEDCONS-lit-udo");
    EXPECT_LE(v.artifact.m, config.m);
    EXPECT_GT(v.shrink_probes, 0u);
    // Minimization never loses the violation: the pinned artifact replays.
    const ConformanceOutcome replayed = replay_artifact(v.artifact);
    EXPECT_TRUE(replayed.violation()) << "trial " << v.trial;
    // A minimized system is never larger than the original.
    EXPECT_LE(v.artifact.system_text.size(), v.system_text.size());
    // And the artifact survives a serialize/parse round trip.
    const ViolationArtifact reparsed = parse_artifact(to_json(v.artifact));
    EXPECT_EQ(reparsed.system_text, v.artifact.system_text);
  }
}

TEST(HarnessTest, ReportIsBitIdenticalAcrossThreadCounts) {
  ConformConfig config = default_conform_config();
  config.trials = 30;
  config.master_seed = 3;
  std::vector<ConformanceEntry> entries;
  entries.push_back(find_conformance_entry("FEDCONS"));
  entries.push_back(find_conformance_entry("FEDCONS-lit-udo"));

  config.num_threads = 1;
  const ConformReport serial = run_conformance(config, entries);
  config.num_threads = 3;
  const ConformReport parallel = run_conformance(config, entries);

  ASSERT_EQ(serial.entries.size(), parallel.entries.size());
  for (std::size_t e = 0; e < serial.entries.size(); ++e) {
    EXPECT_EQ(serial.entries[e].supported, parallel.entries[e].supported);
    EXPECT_EQ(serial.entries[e].admitted, parallel.entries[e].admitted);
    EXPECT_EQ(serial.entries[e].violations, parallel.entries[e].violations);
    EXPECT_EQ(serial.entries[e].jobs_released,
              parallel.entries[e].jobs_released);
  }
  // The violation path — including minimization and artifact text — is part
  // of the determinism contract, not just the aggregate counts.
  ASSERT_EQ(serial.violations.size(), parallel.violations.size());
  ASSERT_GT(serial.violations.size(), 0u);
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(serial.violations[i].trial, parallel.violations[i].trial);
    EXPECT_EQ(serial.violations[i].system_text,
              parallel.violations[i].system_text);
    EXPECT_EQ(serial.violations[i].shrink_probes,
              parallel.violations[i].shrink_probes);
    EXPECT_EQ(to_json(serial.violations[i].artifact),
              to_json(parallel.violations[i].artifact));
  }
  EXPECT_EQ(serial.counters.conform_trials, parallel.counters.conform_trials);
  EXPECT_EQ(serial.counters.conform_violations,
            parallel.counters.conform_violations);
  EXPECT_EQ(serial.counters.conform_shrink_steps,
            parallel.counters.conform_shrink_steps);
}

TEST(ShrinkerTest, MinimizesHandcraftedWitnessAndCountsProbes) {
  const auto entry = find_conformance_entry("FEDCONS-lit-udo");
  const SimConfig cfg = witness_sim_config();
  const std::uint64_t steps_before = perf_counters().conform_shrink_steps;

  const ShrinkResult result =
      shrink_violation(entry, handcrafted_udo_witness(), 1, cfg);

  EXPECT_EQ(result.m, 1);
  EXPECT_GE(result.probes, 1u);
  EXPECT_EQ(perf_counters().conform_shrink_steps - steps_before,
            result.probes);
  // The minimized system still violates, and shrinking is idempotent-safe:
  // it never returns a non-violating system.
  EXPECT_TRUE(entry.run(result.system, result.m, cfg).violation());
  // The witness is already near-minimal (two single-vertex tasks); the
  // shrinker must not inflate it.
  EXPECT_LE(result.system.size(), 2u);
}

TEST(ShrinkerTest, RespectsProbeBudget) {
  const auto entry = find_conformance_entry("FEDCONS-lit-udo");
  const ShrinkResult result = shrink_violation(
      entry, handcrafted_udo_witness(), 1, witness_sim_config(), 3);
  EXPECT_LE(result.probes, 3u);
  EXPECT_TRUE(entry.run(result.system, result.m, witness_sim_config())
                  .violation());
}

TEST(ShrinkerTest, RejectsNonViolatingInput) {
  const auto entry = find_conformance_entry("FEDCONS");
  // FEDCONS rejects the witness, so there is no violation to shrink.
  EXPECT_THROW(shrink_violation(entry, handcrafted_udo_witness(), 1,
                                witness_sim_config()),
               ContractViolation);
}

TEST(ArtifactTest, RoundTripPreservesEveryField) {
  ViolationArtifact art;
  art.algorithm = "FEDCONS-lit-udo";
  art.m = 3;
  art.sim.horizon = 123;
  art.sim.release = ReleaseModel::kSporadic;
  art.sim.jitter_frac = 0.75;
  art.sim.exec = ExecModel::kUniform;
  art.sim.exec_lo = 0.25;
  art.sim.seed = 987654321;
  art.note = "quotes \" and \\ backslashes\nand newlines";
  art.observed.jobs_released = 4;
  art.observed.deadline_misses = 2;
  art.observed.max_lateness = 7;
  art.observed.max_response_time = 17;
  art.system_text = serialize_task_system(handcrafted_udo_witness());

  const ViolationArtifact back = parse_artifact(to_json(art));
  EXPECT_EQ(back.algorithm, art.algorithm);
  EXPECT_EQ(back.m, art.m);
  EXPECT_EQ(back.sim.horizon, art.sim.horizon);
  EXPECT_EQ(back.sim.release, art.sim.release);
  EXPECT_DOUBLE_EQ(back.sim.jitter_frac, art.sim.jitter_frac);
  EXPECT_EQ(back.sim.exec, art.sim.exec);
  EXPECT_DOUBLE_EQ(back.sim.exec_lo, art.sim.exec_lo);
  EXPECT_EQ(back.sim.seed, art.sim.seed);
  EXPECT_EQ(back.note, art.note);
  EXPECT_EQ(back.observed.jobs_released, art.observed.jobs_released);
  EXPECT_EQ(back.observed.deadline_misses, art.observed.deadline_misses);
  EXPECT_EQ(back.observed.max_lateness, art.observed.max_lateness);
  EXPECT_EQ(back.observed.max_response_time, art.observed.max_response_time);
  EXPECT_EQ(back.system_text, art.system_text);
  // Serialization is byte-deterministic, so a second round trip is exact.
  EXPECT_EQ(to_json(back), to_json(art));
}

TEST(ArtifactTest, ReplayRefutesTheHandcraftedWitness) {
  ViolationArtifact art;
  art.algorithm = "FEDCONS-lit-udo";
  art.m = 1;
  art.sim = witness_sim_config();
  art.system_text = serialize_task_system(handcrafted_udo_witness());
  const ConformanceOutcome outcome = replay_artifact(art);
  EXPECT_TRUE(outcome.violation());
}

TEST(ArtifactTest, ParserRejectsMalformedInput) {
  ViolationArtifact art;
  art.algorithm = "FEDCONS";
  art.m = 1;
  art.system_text = serialize_task_system(handcrafted_udo_witness());
  const std::string good = to_json(art);

  EXPECT_THROW(parse_artifact(""), ParseError);
  EXPECT_THROW(parse_artifact("not json"), ParseError);
  EXPECT_THROW(parse_artifact("{\"schema\": \"fedcons-conformance-repro-v1\""),
               ParseError);  // truncated
  EXPECT_THROW(parse_artifact("{\"schema\": \"some-other-schema\"}"),
               ParseError);  // wrong schema tag
  EXPECT_THROW(parse_artifact("{\"algorithm\": \"FEDCONS\"}"),
               ParseError);  // schema field missing entirely
  // Simulation doubles must convert in full and be finite.
  const auto with_value = [&](const std::string& key, const std::string& v) {
    std::string json = good;
    const std::size_t at = json.find("\"" + key + "\": ") + key.size() + 4;
    json.replace(at, json.find(',', at) - at, v);
    return json;
  };
  EXPECT_NO_THROW(parse_artifact(with_value("jitter_frac", "0.25")));
  EXPECT_THROW(parse_artifact(with_value("jitter_frac", "\"half\"")),
               ParseError);
  EXPECT_THROW(parse_artifact(with_value("exec_lo", "1e999")), ParseError);
  // Valid JSON whose embedded system text is garbage must also fail.
  std::string bad_system = good;
  const std::string needle = "task hand-A";
  bad_system.replace(bad_system.find(needle), needle.size(), "tusk hand-A");
  EXPECT_THROW(parse_artifact(bad_system), ParseError);
  EXPECT_NO_THROW(parse_artifact(good));
}

TEST(AnomalyDemoTest, OnlineRerunMissesWhereTemplateReplayDoesNot) {
  const AnomalyDemoReport demo = run_anomaly_demo();
  ASSERT_TRUE(demo.found);
  EXPECT_GE(demo.seed, 1u);

  // The differential core: same system, same m, same seed.
  EXPECT_TRUE(demo.online.supported);
  EXPECT_TRUE(demo.online.admitted);
  EXPECT_GT(demo.online.sim.deadline_misses, 0u);
  EXPECT_TRUE(demo.online.violation());

  EXPECT_TRUE(demo.replay.supported);
  EXPECT_TRUE(demo.replay.admitted);
  EXPECT_EQ(demo.replay.sim.deadline_misses, 0u);
  EXPECT_FALSE(demo.replay.violation());

  // The packaged artifact reproduces the online-rerun refutation.
  EXPECT_EQ(demo.artifact.algorithm, "FEDCONS@online-rerun");
  EXPECT_TRUE(replay_artifact(demo.artifact).violation());
  EXPECT_EQ(demo.artifact.system_text, demo.system_text);
}

TEST(AnomalyDemoTest, DeterministicAcrossInvocations) {
  const AnomalyDemoReport a = run_anomaly_demo();
  const AnomalyDemoReport b = run_anomaly_demo();
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(to_json(a.artifact), to_json(b.artifact));
}

}  // namespace
}  // namespace fedcons
