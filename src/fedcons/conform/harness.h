// The conformance fuzzing harness: randomized differential testing at scale.
//
// run_conformance drives trials over the engine's BatchRunner: each trial
// draws a random task system (gen/taskset_gen.h) at a per-trial utilization
// level, then evaluates every conformance entry on it — analysis verdict plus
// full composition replay (conform/oracle.h). Violations are minimized by the
// shrinker and packaged as pinned JSON artifacts (conform/artifact.h).
//
// Determinism contract (inherited from BatchRunner and extended here): trial
// i draws exclusively from Rng(trial_seed(master_seed, i)) — the generated
// system, the per-trial simulation seed, and hence every oracle outcome are
// pure functions of (config, i). Per-trial perf-counter deltas are captured
// on the executing worker thread and aggregated in trial-index order;
// shrinking runs serially on the calling thread over violations in
// trial-index order. The resulting ConformReport is therefore BIT-IDENTICAL
// for any thread count, violations and artifacts included.
//
// Counter semantics (util/perf_counters.h):
//   conform_trials       — oracle evaluations: one per (trial, entry) pair.
//   conform_violations   — evaluations whose admitted verdict missed a
//                          deadline in replay (counted at discovery, not
//                          per re-run during shrinking).
//   conform_shrink_steps — candidate reductions evaluated by the shrinker
//                          (each is one full oracle re-run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fedcons/conform/artifact.h"
#include "fedcons/conform/oracle.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

struct ConformConfig {
  int m = 8;                      ///< platform size offered to every entry
  std::size_t trials = 1000;
  std::uint64_t master_seed = 1;
  int num_threads = 0;            ///< BatchRunner convention (0 = hardware)
  /// Per-trial target U_sum is drawn uniformly from [util_lo, util_hi]·m, so
  /// one run sweeps the whole acceptance spectrum.
  double util_lo = 0.2;
  double util_hi = 0.95;
  /// Fraction of trials generated with implicit deadlines (D == T), so the
  /// implicit-only entries (FED-LI-implicit) see real coverage; the rest use
  /// the configured deadline-ratio range. Drawn per trial from the trial rng.
  double implicit_fraction = 0.25;
  TaskSetParams gen;     ///< total_utilization/utilization_cap set per trial
  SimConfig sim;         ///< seed overwritten per trial
  std::size_t shrink_budget = 2000;  ///< max oracle probes per violation
};

/// Tuned defaults for conformance runs: small-period workloads and a short
/// horizon keep per-trial event counts tractable at --trials 10000, and the
/// stressiest randomized models are on (sporadic releases with jitter up to
/// T, uniform execution times in [½·WCET, WCET]).
[[nodiscard]] ConformConfig default_conform_config();

/// Per-entry aggregate over all trials.
struct EntryReport {
  std::string name;
  std::uint64_t supported = 0;   ///< trials within the entry's contract
  std::uint64_t admitted = 0;    ///< "schedulable" verdicts (each replayed)
  std::uint64_t violations = 0;  ///< refuted verdicts
  std::uint64_t jobs_released = 0;  ///< dag-jobs simulated across replays
};

/// One discovered violation, minimized and packaged.
struct ViolationRecord {
  std::size_t trial = 0;
  std::string algorithm;
  SimConfig sim;             ///< exact per-trial config (seed included)
  SimStats observed;         ///< replay stats on the ORIGINAL system
  std::string system_text;   ///< original violating system (core/io.h)
  std::size_t shrink_probes = 0;
  ViolationArtifact artifact;  ///< pinned repro (minimized system and m)
};

struct ConformReport {
  std::size_t trials = 0;
  int m = 0;
  std::vector<EntryReport> entries;       ///< one per conformance entry
  std::vector<ViolationRecord> violations;  ///< trial-index order
  PerfCounters counters;  ///< Σ per-trial deltas + shrink-phase delta

  [[nodiscard]] std::uint64_t total_violations() const noexcept {
    std::uint64_t n = 0;
    for (const auto& e : entries) n += e.violations;
    return n;
  }
};

/// Run the harness (see header comment). Preconditions: m >= 1; at least one
/// entry; util_lo <= util_hi.
[[nodiscard]] ConformReport run_conformance(
    const ConformConfig& config, std::span<const ConformanceEntry> entries);

/// Machine-readable report document (fedcons_conform --json). Fixed key
/// order, carries "schema_version"; byte-identical for a given report, which
/// is itself bit-identical for any thread count.
[[nodiscard]] std::string conform_report_json(const ConformReport& report);

}  // namespace fedcons
