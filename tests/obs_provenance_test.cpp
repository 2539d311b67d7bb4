// Verdict-provenance tests: golden renderings on hand-constructed instances
// (one witness per failure mode) and the recording-invariance contract.
#include "fedcons/obs/provenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fedcons/core/builders.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/util/perf_counters.h"
#include "test_json.h"

namespace fedcons {
namespace {

DagTask simple_task(Time wcet, Time deadline, Time period,
                    std::string name = {}) {
  DagBuilder g;
  g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period, std::move(name));
}

DagTask wide_task(int width, Time wcet, Time deadline, Time period,
                  std::string name = {}) {
  DagBuilder g;
  for (int i = 0; i < width; ++i) g.add_vertex(wcet);
  return DagTask(g.build(), deadline, period, std::move(name));
}

FedconsResult run_with_provenance(const TaskSystem& sys, int m) {
  FedconsOptions options;
  options.record_provenance = true;
  FedconsResult r = fedcons_schedule(sys, m, options);
  EXPECT_NE(r.provenance, nullptr);
  return r;
}

TEST(ProvenanceTest, NullByDefault) {
  TaskSystem sys;
  sys.add(simple_task(2, 10, 20));
  FedconsResult r = fedcons_schedule(sys, 1);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.provenance, nullptr);
}

TEST(ProvenanceTest, GoldenMinprocsExhaustionWitness) {
  // Four independent jobs of 2, D = 3: δ = 8/3 → the scan starts at μ = 3,
  // where LS needs makespan 4 > 3. μ = 4 would fit (cap = 4) but m = 3
  // processors exist — the μ-scan exhausts m_r and must report its best
  // probe as the witness.
  TaskSystem sys;
  sys.add(wide_task(4, 2, 3, 4, "wide"));
  FedconsResult r = run_with_provenance(sys, 3);
  ASSERT_FALSE(r.success);
  EXPECT_EQ(r.failure, FedconsFailure::kHighDensityPhase);

  const FedconsProvenance& prov = *r.provenance;
  ASSERT_EQ(prov.clusters.size(), 1u);
  const MinprocsProvenance& scan = prov.clusters[0].scan;
  EXPECT_FALSE(scan.satisfied);
  EXPECT_FALSE(scan.len_exceeds_deadline);
  EXPECT_EQ(scan.scan_lb, 3);
  EXPECT_EQ(scan.scan_cap, 4);
  EXPECT_EQ(scan.max_processors, 3);
  ASSERT_EQ(scan.probes.size(), 1u);
  EXPECT_EQ(scan.probes[0].mu, 3);
  EXPECT_EQ(scan.probes[0].makespan, 4);
  EXPECT_EQ(scan.best_makespan, 4);
  EXPECT_EQ(scan.best_mu, 3);

  EXPECT_EQ(
      explain_text(sys, prov),
      "FEDCONS on m=3: REJECTED in high-density-phase (τ1 'wide')\n"
      "phase 1 — MINPROCS template clusters (1 high-density task(s)):\n"
      "  τ1 'wide' (δ≈2.67, vol=8, len=2, D=3): scan μ ∈ [⌈δ⌉=3, "
      "min(m_r=3, cap=4)] → EXHAUSTED m_r=3: best makespan 4 at μ=3 > D=3; "
      "probes: μ=3:4\n"
      "phase 2 — PARTITION deadline-monotonic first-fit: not reached "
      "(phase 1 failed)\n");
}

TEST(ProvenanceTest, GoldenScanStartExceedsProcessors) {
  // δ = 4 on m = 2: ⌈δ⌉ already exceeds m_r, so no probe ever runs — the
  // witness is the empty scan itself.
  TaskSystem sys;
  sys.add(wide_task(8, 1, 2, 4, "spike"));
  FedconsResult r = run_with_provenance(sys, 2);
  ASSERT_FALSE(r.success);
  const MinprocsProvenance& scan = r.provenance->clusters.at(0).scan;
  EXPECT_TRUE(scan.probes.empty());
  EXPECT_FALSE(scan.len_exceeds_deadline);

  const std::string text = explain_text(sys, *r.provenance);
  EXPECT_NE(text.find("EXHAUSTED: scan start ⌈δ⌉=4 already exceeds m_r=2 "
                      "(no probe run)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("probes: (none)"), std::string::npos) << text;
}

TEST(ProvenanceTest, GoldenLenExceedsDeadline) {
  // Critical path 4 > D = 3: trivially hopeless, no μ can help.
  TaskSystem sys;
  Dag g = DagBuilder{}.vertices({2, 2}).edge(0, 1).build();
  sys.add(DagTask(std::move(g), 3, 4, "chain"));
  FedconsResult r = run_with_provenance(sys, 8);
  ASSERT_FALSE(r.success);
  EXPECT_TRUE(r.provenance->clusters.at(0).scan.len_exceeds_deadline);
  const std::string text = explain_text(sys, *r.provenance);
  EXPECT_NE(text.find("len > D — no processor count can meet the deadline"),
            std::string::npos)
      << text;
}

TEST(ProvenanceTest, GoldenPartitionDbfBreakpointWitness) {
  // Two C=3, D=5, T=10 tasks on one shared processor: the second task's
  // probe fails the DBF* demand condition at breakpoint t = 5 (3 + 3 > 5).
  TaskSystem sys;
  sys.add(simple_task(3, 5, 10, "a"));
  sys.add(simple_task(3, 5, 10, "b"));
  FedconsResult r = run_with_provenance(sys, 1);
  ASSERT_FALSE(r.success);
  EXPECT_EQ(r.failure, FedconsFailure::kPartitionPhase);
  ASSERT_TRUE(r.failed_task.has_value());
  EXPECT_EQ(*r.failed_task, 1u);

  const FedconsProvenance& prov = *r.provenance;
  ASSERT_TRUE(prov.partition_reached);
  ASSERT_EQ(prov.partition.placements.size(), 2u);
  const PlacementRecord& failed = prov.partition.placements[1];
  EXPECT_EQ(failed.chosen_bin, -1);
  ASSERT_EQ(failed.attempts.size(), 1u);
  EXPECT_FALSE(failed.attempts[0].fits);
  EXPECT_EQ(failed.attempts[0].reason, BinRejectReason::kDemand);
  EXPECT_EQ(failed.attempts[0].breakpoint, 5);

  EXPECT_EQ(
      explain_text(sys, prov),
      "FEDCONS on m=1: REJECTED in partition-phase (τ2 'b')\n"
      "phase 1 — MINPROCS template clusters (0 high-density task(s)):\n"
      "  (no high-density tasks)\n"
      "phase 2 — PARTITION deadline-monotonic first-fit on m_r=1 shared "
      "processor(s), 2 low-density task(s):\n"
      "  τ1 'a' (D=5, C=3) → bin 0\n"
      "  τ2 'b' (D=5, C=3): NO BIN FIT\n"
      "      bin 0: DBF* demand 6 > capacity 5 at breakpoint t=5\n"
      "  (placement aborts at the first task that fits nowhere; later tasks "
      "were not attempted)\n");
}

TEST(ProvenanceTest, UtilizationRejectionIsAttributed) {
  // u = 3/5 each with long deadlines: two fit nowhere together because the
  // long-run capacity check trips before any demand breakpoint.
  TaskSystem sys;
  sys.add(simple_task(3, 5, 5, "u1"));
  sys.add(simple_task(3, 5, 5, "u2"));
  FedconsResult r = run_with_provenance(sys, 1);
  ASSERT_FALSE(r.success);
  const auto& attempts = r.provenance->partition.placements.at(1).attempts;
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0].reason, BinRejectReason::kUtilization);
  EXPECT_NE(attempts[0].detail.find("utilization"), std::string::npos);
}

TEST(ProvenanceTest, AcceptedSystemRecordsFullTrajectory) {
  TaskSystem sys;
  sys.add(wide_task(8, 1, 2, 4, "high"));  // δ = 4: needs 4 dedicated procs
  sys.add(make_paper_example_task());
  sys.add(simple_task(2, 10, 20));
  FedconsResult r = run_with_provenance(sys, 6);
  ASSERT_TRUE(r.success);

  const FedconsProvenance& prov = *r.provenance;
  EXPECT_TRUE(prov.success);
  EXPECT_EQ(prov.failure, "accepted");
  ASSERT_EQ(prov.clusters.size(), 1u);
  EXPECT_TRUE(prov.clusters[0].scan.satisfied);
  EXPECT_EQ(prov.clusters[0].scan.chosen_mu, 4);
  EXPECT_TRUE(prov.partition_reached);
  EXPECT_EQ(prov.shared_processors, 2);
  ASSERT_EQ(prov.low_tasks.size(), 2u);
  EXPECT_EQ(prov.partition.placements.size(), 2u);
  for (const auto& pl : prov.partition.placements) {
    EXPECT_GE(pl.chosen_bin, 0);
  }
}

TEST(ProvenanceTest, ExplainJsonSchema) {
  TaskSystem sys;
  sys.add(wide_task(4, 2, 3, 4, "wide"));
  sys.add(simple_task(3, 5, 10, "a"));
  FedconsResult r = run_with_provenance(sys, 4);

  auto doc = testjson::parse(explain_json(sys, *r.provenance));
  EXPECT_EQ(doc->at("schema_version").number, 1.0);
  EXPECT_EQ(doc->at("m").number, 4.0);
  ASSERT_TRUE(doc->at("clusters").is_array());
  ASSERT_EQ(doc->at("clusters").array.size(), 1u);
  const auto& cluster = *doc->at("clusters").array[0];
  EXPECT_EQ(cluster.at("name").string, "wide");
  EXPECT_TRUE(cluster.at("probes").is_array());
  for (const auto& probe : cluster.at("probes").array) {
    EXPECT_TRUE(probe->at("mu").is_number());
    EXPECT_TRUE(probe->at("makespan").is_number());
  }
  ASSERT_TRUE(doc->at("placements").is_array());
  for (const auto& pl : doc->at("placements").array) {
    EXPECT_TRUE(pl->at("task").is_number());
    EXPECT_TRUE(pl->at("attempts").is_array());
    for (const auto& at : pl->at("attempts").array) {
      EXPECT_TRUE(at->at("bin").is_number());
      if (!at->at("fits").boolean) {
        EXPECT_TRUE(at->has("reason"));
        EXPECT_TRUE(at->has("breakpoint"));
        EXPECT_TRUE(at->has("detail"));
      }
    }
  }
}

TEST(ProvenanceTest, ExplainJsonRejectionCarriesWitness) {
  TaskSystem sys;
  sys.add(simple_task(3, 5, 10, "a"));
  sys.add(simple_task(3, 5, 10, "b"));
  FedconsResult r = run_with_provenance(sys, 1);
  ASSERT_FALSE(r.success);
  auto doc = testjson::parse(explain_json(sys, *r.provenance));
  EXPECT_EQ(doc->at("schedulable").boolean, false);
  EXPECT_EQ(doc->at("failure").string, "partition-phase");
  EXPECT_EQ(doc->at("failed_task").number, 1.0);
  const auto& attempts = doc->at("placements").array[1]->at("attempts");
  ASSERT_EQ(attempts.array.size(), 1u);
  EXPECT_EQ(attempts.array[0]->at("reason").string, "demand");
  EXPECT_EQ(attempts.array[0]->at("breakpoint").number, 5.0);
}

// Task names are caller input: a control byte in one must leave as a \u
// escape, or the document is not JSON. (test_json.h accepts raw control
// bytes, so this checks the bytes rather than parsing.)
TEST(ProvenanceTest, ExplainJsonEscapesControlBytesInNames) {
  TaskSystem sys;
  sys.add(wide_task(4, 2, 3, 4, std::string("a\x01" "b")));
  sys.add(simple_task(3, 5, 10, "low"));
  FedconsResult r = run_with_provenance(sys, 4);
  const std::string json = explain_json(sys, *r.provenance);
  EXPECT_NE(json.find("\"name\": \"a\\u0001b\""), std::string::npos);
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return c != '\n' &&
                                   static_cast<unsigned char>(c) < 0x20;
                          }),
            0);
}

TEST(ProvenanceTest, RecordingDoesNotPerturbVerdictsOrCounters) {
  // The core contract: recording only observes computations the algorithm
  // already performs. Identical verdict, allocation, and counter deltas
  // with recording on and off — across accept and both reject phases.
  TaskSystem accept, reject_high, reject_part;
  accept.add(wide_task(8, 1, 2, 4));
  accept.add(make_paper_example_task());
  reject_high.add(wide_task(4, 2, 3, 4));
  reject_part.add(simple_task(3, 5, 10));
  reject_part.add(simple_task(3, 5, 10));

  struct Case {
    const TaskSystem* sys;
    int m;
  };
  for (const Case& c : {Case{&accept, 6}, Case{&reject_high, 3},
                        Case{&reject_part, 1}}) {
    FedconsOptions plain;
    const PerfCounters before_plain = perf_counters();
    FedconsResult r_plain = fedcons_schedule(*c.sys, c.m, plain);
    const PerfCounters delta_plain = perf_counters() - before_plain;

    FedconsOptions recording;
    recording.record_provenance = true;
    const PerfCounters before_rec = perf_counters();
    FedconsResult r_rec = fedcons_schedule(*c.sys, c.m, recording);
    const PerfCounters delta_rec = perf_counters() - before_rec;

    EXPECT_EQ(r_plain.success, r_rec.success);
    EXPECT_EQ(r_plain.failure, r_rec.failure);
    EXPECT_EQ(r_plain.failed_task, r_rec.failed_task);
    EXPECT_EQ(r_plain.shared_processors, r_rec.shared_processors);
    EXPECT_EQ(r_plain.shared_assignment, r_rec.shared_assignment);
    EXPECT_EQ(delta_plain.ls_invocations, delta_rec.ls_invocations);
    EXPECT_EQ(delta_plain.minprocs_scan_iterations,
              delta_rec.minprocs_scan_iterations);
    EXPECT_EQ(delta_plain.dbf_star_evaluations,
              delta_rec.dbf_star_evaluations);
    EXPECT_EQ(delta_plain.ls_probes_pruned, delta_rec.ls_probes_pruned);
  }
}

}  // namespace
}  // namespace fedcons
