// The isolation property checker: federated isolation as a fuzzed,
// enforced, and pinned claim.
//
// Federated scheduling's core promise is ISOLATION: a dedicated cluster owns
// its processors outright, and an EDF bin admits tasks only up to a demand
// certificate — so one task misbehaving (WCET overrun, early arrivals)
// must never cost a DIFFERENT task its deadline, provided the runtime
// enforces the admitted contracts (SupervisionMode::kEnforce). This harness
// turns that promise into a checked claim, the same way conform/harness.h
// treats schedulability verdicts:
//
//   trial i: draw a random system → run FEDCONS admission → pick one target
//   task uniformly → draw a random fault plan against it → replay the full
//   system with the plan injected → count deadline misses of the target
//   (expected, its fault) separately from misses of every OTHER task
//   (forbidden under enforcement).
//
// A cross-task miss is an INCIDENT: it is minimized with the conformance
// shrinker (dropping the target task or the victim task makes the candidate
// non-violating, so shrinking converges toward a minimal {target, victim}
// pair) and packaged as a pinned fedcons-fault-repro-v1 artifact
// (conform/artifact.h) by the step the conformance harness also uses.
// With supervision OFF the same harness demonstrates the cascade the
// enforcement exists to prevent — the demo battery expects incidents there.
//
// Determinism contract (inherited from BatchRunner): trial i draws from
// Rng(trial_seed(master_seed, i)) in a fixed order; shrinking runs serially
// in trial order. The IsolationReport is BIT-IDENTICAL for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fedcons/conform/artifact.h"
#include "fedcons/conform/oracle.h"
#include "fedcons/fault/fault_plan.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

struct IsolationConfig {
  int m = 8;
  std::size_t trials = 500;
  std::uint64_t master_seed = 1;
  int num_threads = 0;  ///< BatchRunner convention (0 = hardware)
  SupervisionMode supervision = SupervisionMode::kEnforce;
  /// Per-trial target U_sum drawn uniformly from [util_lo, util_hi]·m.
  double util_lo = 0.2;
  double util_hi = 0.95;
  TaskSetParams gen;   ///< total_utilization/utilization_cap set per trial
  SimConfig sim;       ///< seed/faults/supervision overwritten per trial
  FaultPlanParams fault;
  std::size_t shrink_budget = 2000;  ///< max oracle probes per incident
};

/// Tuned defaults mirroring default_conform_config: small periods, short
/// horizon, sporadic releases, uniform execution times.
[[nodiscard]] IsolationConfig default_isolation_config();

/// One cross-task miss the fuzzer caught, minimized and packaged.
struct IsolationIncident {
  std::size_t trial = 0;
  std::string target;        ///< display name of the faulted task
  FaultPlan plan;
  SimConfig sim;             ///< exact per-trial config (seed included)
  SimStats cross_observed;   ///< non-target stats on the ORIGINAL system
  std::string system_text;   ///< original system (core/io.h)
  std::size_t shrink_probes = 0;
  ViolationArtifact artifact;  ///< pinned repro (minimized system and m)
};

struct IsolationReport {
  std::size_t trials = 0;
  std::size_t admitted = 0;  ///< trials FEDCONS accepted (= plans injected)
  int m = 0;
  SupervisionMode supervision = SupervisionMode::kNone;
  std::uint64_t target_misses = 0;  ///< misses of faulted tasks (their fault)
  std::uint64_t cross_misses = 0;   ///< misses of innocent neighbours
  std::vector<IsolationIncident> incidents;  ///< trial-index order
  PerfCounters counters;  ///< Σ per-trial deltas + shrink-phase delta

  /// The claim under enforcement: no innocent task ever missed.
  [[nodiscard]] bool isolated() const noexcept { return cross_misses == 0; }
};

/// Run the fuzzer (see header comment). Preconditions: m >= 1; trials >= 1;
/// util_lo <= util_hi.
[[nodiscard]] IsolationReport run_isolation_fuzz(const IsolationConfig& config);

/// Machine-readable report document (fedcons_conform --isolation --json).
/// Fixed key order, carries "schema_version"; byte-identical for a given
/// report, which is itself bit-identical for any thread count.
[[nodiscard]] std::string isolation_report_json(const IsolationReport& report);

/// The isolation oracle as a ConformanceEntry, which is what lets the
/// conformance shrinker minimize incidents unchanged: run FEDCONS admission
/// on (system, m); when admitted, replay the full system with `plan`
/// injected under `supervision` and return as `sim` the MERGED statistics of
/// every task the plan does not target. outcome.violation() is therefore
/// exactly "an innocent task missed a deadline". Systems with D > T are
/// unsupported (FEDCONS's contract).
[[nodiscard]] ConformanceEntry make_isolation_entry(
    FaultPlan plan, SupervisionMode supervision);

}  // namespace fedcons
