// Differential conformance oracles: every "schedulable" verdict becomes a
// checked claim.
//
// A ConformanceEntry pairs a schedulability analysis with the run-time
// composition its acceptance promises. Running an entry on a task system
// performs the analysis and, when it admits, REPLAYS the exact allocation it
// produced in simulation — template-schedule lookup dispatch on dedicated
// clusters, preemptive EDF (or DM fixed-priority) on shared processors —
// under randomized actual execution times ≤ WCET and sporadic release jitter.
// A single deadline miss under an admitted verdict refutes the analysis (or
// the simulator, or the glue between them); the harness (conform/harness.h)
// hunts for such refutations at scale and the shrinker (conform/shrinker.h)
// minimizes them into pinned regression artifacts.
//
// Each oracle replays the composition the analysis actually reasons about:
//  * FEDCONS variants     — simulate_system over the returned FedconsResult
//    (σ_i template replay per cluster, per-processor EDF on the shared pool).
//  * ARBFED variants      — simulate_arbitrary_system (pipelined σ replay
//    with processor-overlap validation).
//  * P-SEQ                — per-processor EDF over the sequentialized tasks
//    of the returned PartitionResult.
//  * P-DM                 — per-processor preemptive fixed-priority with the
//    bin's DM order as the priority order (what RTA certified).
//  * FED-LI variants      — LS template replay on each dedicated n_i-block
//    (sound: Graham's bound caps the template makespan at the analysis
//    window), per-processor EDF over the shared assignment.
//  * GEDF-density         — global EDF of the SEQUENTIALIZED system (one
//    vertex of WCET vol per task): the Goossens–Funk–Baruah bound certifies
//    exactly that composition, and sequential global EDF is predictable
//    (Ha–Liu), so early completions cannot manufacture spurious misses.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fedcons/core/task_system.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/sim/cluster_sim.h"
#include "fedcons/sim/sim_config.h"

namespace fedcons {

/// Outcome of one oracle evaluation.
struct ConformanceOutcome {
  /// The system's deadline class is within the algorithm's contract; when
  /// false, nothing was evaluated (preconditions would fire).
  bool supported = false;
  bool admitted = false;  ///< the analysis said "schedulable"
  SimStats sim;           ///< replay statistics; meaningful only when admitted

  /// An admitted verdict whose replay missed a deadline — a refuted claim.
  [[nodiscard]] bool violation() const noexcept {
    return supported && admitted && sim.deadline_misses > 0;
  }
};

/// A named analysis plus the replay of the composition it promises. `run`
/// must be deterministic in (system, m, config) and safe to call concurrently
/// from distinct threads (the BatchRunner contract): all randomness derives
/// from config.seed.
struct ConformanceEntry {
  std::string name;
  std::function<ConformanceOutcome(const TaskSystem&, int, const SimConfig&)>
      run;
};

/// FEDCONS with the given options, replayed under the given dispatch mode and
/// gated by the FEDCONS table row.
/// kOnlineRerun is intentionally available: it is the UNSOUND dispatch the
/// paper's footnote 2 warns against, used by the demonstration battery.
[[nodiscard]] ConformanceEntry make_fedcons_conformance_entry(
    std::string name, const FedconsOptions& options = {},
    ClusterDispatch dispatch = ClusterDispatch::kTemplateReplay);

/// The default battery: one entry per row of the engine's algorithm table
/// (engine/algorithms.h), of the same name and gated by that row's
/// supports(), each replaying its own composition. Every entry
/// here is believed sound — a violation is a bug by definition.
[[nodiscard]] std::vector<ConformanceEntry> builtin_conformance_entries();

/// Deliberately unsound entries for exercising the violation path end-to-end
/// (never part of the default battery):
///  * "FEDCONS@online-rerun" — sound analysis, anomalous online-LS dispatch.
///  * "FEDCONS-lit-udo"     — Fig. 4 literal demand check with
///    utilization-descending placement order, which forfeits the
///    deadline-monotonic slope argument that makes the literal check sound.
[[nodiscard]] std::vector<ConformanceEntry> demonstration_conformance_entries();

/// Resolve a name across both batteries (case-sensitive). Throws
/// ContractViolation when unknown.
[[nodiscard]] ConformanceEntry find_conformance_entry(const std::string& name);

}  // namespace fedcons
