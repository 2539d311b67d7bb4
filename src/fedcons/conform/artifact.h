// Pinned violation repro artifacts (JSON).
//
// A violation one of the fuzzers finds (and the shrinker minimizes) is
// serialized into a small self-contained JSON document so it can be
// committed to a corpus and replayed forever after. A conformance repro
// (conform/harness.h, tests/conformance_corpus/) names the conformance entry
// whose admitted verdict missed a deadline:
//
//   {
//     "schema": "fedcons-conformance-repro-v1",
//     "algorithm": "FEDCONS-lit-udo",          // conformance-entry name
//     "m": 1,
//     "sim": { "horizon": 64, "release": "periodic", "jitter_frac": 0,
//              "exec": "wcet", "exec_lo": 0.5, "seed": 1 },
//     "note": "free-form provenance",
//     "observed": { "jobs_released": 4, "deadline_misses": 1,
//                   "max_lateness": 1, "max_response_time": 17 },
//     "system": "task a\n  deadline 9\n  ...\nend\n"  // core/io.h format
//   }
//
// An isolation repro (conform/isolation.h, tests/fault_corpus/) has schema
// "fedcons-fault-repro-v1", no "algorithm", and after "m" the supervision
// mode and the fault plan (fault/fault_plan.h grammar) it ran under:
//
//     "m": 2,
//     "supervision": "none",                    // or "enforce"
//     "plan": "task:a,overrun:4000;seed:7",
//
// The embedded system uses the repository's canonical workload text format
// (core/io.h), so an artifact is also directly usable with fedcons_cli.
// `observed` records what the finder saw — for an isolation repro, the
// merged statistics of the tasks the plan does not target. It is
// informational provenance: replay re-derives the violation from scratch and
// only asserts that a miss occurs. The JSON dialect is the shared mini-JSON
// subset (util/mini_json.h); the parser raises ParseError on anything else.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "fedcons/conform/oracle.h"
#include "fedcons/fault/fault_plan.h"

namespace fedcons {

/// One pinned repro (see header comment).
struct ViolationArtifact {
  std::string algorithm;  ///< conformance repro: find_conformance_entry name
  int m = 1;
  /// Isolation repro only: the fault plan injected against one task. Setting
  /// it selects the fedcons-fault-repro-v1 schema.
  std::optional<FaultPlan> fault_plan;
  /// Isolation repro only: the supervision the plan ran under.
  SupervisionMode supervision = SupervisionMode::kNone;
  SimConfig sim;  ///< faults/supervision not serialized (see fields above)
  std::string note;
  SimStats observed;        ///< finder-side statistics (provenance only)
  std::string system_text;  ///< core/io.h workload text
};

/// Serialize under the artifact's schema (stable field order;
/// byte-deterministic for given inputs).
[[nodiscard]] std::string to_json(const ViolationArtifact& artifact);

/// Parse an artifact of either schema, chosen by its "schema" field. Throws
/// ParseError (core/io.h) on malformed JSON, an unknown schema tag, a
/// malformed number or fault plan; the embedded system text is validated by
/// parsing.
[[nodiscard]] ViolationArtifact parse_artifact(const std::string& json);

/// Re-run the artifact on its embedded system: a conformance repro through
/// its named entry, an isolation repro through make_isolation_entry (whose
/// outcome covers only the tasks the plan does not target). A faithful
/// artifact yields outcome.violation() == true.
[[nodiscard]] ConformanceOutcome replay_artifact(
    const ViolationArtifact& artifact);

/// The fuzzers' shared minimize-and-pin step: shrink the violating
/// (system_text, m) under `entry` within `shrink_budget` oracle probes,
/// re-run `entry` on the minimized witness, and fill `artifact`'s m, sim,
/// note, observed and system_text. The caller sets the schema's own fields
/// beforehand, and `found_by` opens the provenance note. Returns the number
/// of shrinker probes.
[[nodiscard]] std::size_t pin_violation(const ConformanceEntry& entry,
                                        const std::string& system_text, int m,
                                        const SimConfig& sim,
                                        std::size_t shrink_budget,
                                        const std::string& found_by,
                                        ViolationArtifact& artifact);

}  // namespace fedcons
