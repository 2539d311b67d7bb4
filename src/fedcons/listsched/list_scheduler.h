// Graham's List Scheduling (LS) for precedence-constrained jobs.
//
// Paper, Section IV-A: LS "essentially constructs a work-conserving schedule
// by always executing an available job, if any are present, upon any
// available processor" and has a speedup bound of (2 − 1/m) against the
// preemptive optimal makespan [Graham 1969]. MINPROCS invokes LS with
// increasing processor counts until the makespan fits the task's deadline.
//
// The list priority is a free parameter of LS; the bound holds for any list.
// We default to vertex-index order (the paper does not prioritize) and also
// provide the classic critical-path heuristic for the ablation experiments.
#pragma once

#include <span>
#include <vector>

#include "fedcons/core/dag.h"
#include "fedcons/listsched/schedule.h"

namespace fedcons {

/// Job priority within the ready list.
enum class ListPolicy {
  kVertexOrder,    ///< lowest vertex id first (paper-neutral default)
  kCriticalPath,   ///< largest bottom level first (classic CP heuristic)
  kLongestWcet,    ///< largest WCET first (LPT-style)
};

[[nodiscard]] const char* to_string(ListPolicy p) noexcept;

/// Run non-preemptive Graham LS for one dag-job of `dag` on `num_processors`
/// processors, all jobs released at time 0 and running for their full WCETs.
/// Deterministic: ties in readiness break by policy order then vertex id;
/// ties among idle processors break by lowest processor index.
/// Preconditions: dag acyclic and non-empty; num_processors >= 1.
[[nodiscard]] TemplateSchedule list_schedule(
    const Dag& dag, int num_processors,
    ListPolicy policy = ListPolicy::kVertexOrder);

/// LS with per-vertex *actual* execution times (each 0 < exec ≤ WCET),
/// exactly the "re-run LS during run-time" behaviour the paper warns against
/// (footnote 2): Graham's anomaly means the resulting makespan may EXCEED
/// the WCET-based template's makespan. Used by the anomaly demonstration and
/// the online-LS simulator mode. Precondition: exec_times.size() == |V|.
[[nodiscard]] TemplateSchedule list_schedule_with_exec_times(
    const Dag& dag, int num_processors, std::span<const Time> exec_times,
    ListPolicy policy = ListPolicy::kVertexOrder);

/// Lower bound on ANY schedule's makespan (preemptive or not) on m
/// processors: max(len, ⌈vol/m⌉).
[[nodiscard]] Time makespan_lower_bound(const Dag& dag, int num_processors);

/// Graham's upper bound on the LS makespan against the preemptive optimum:
/// LS ≤ (2 − 1/m)·OPT. Since OPT ≥ makespan_lower_bound, LS also satisfies
/// LS ≤ len + (vol − len)/m ≤ vol/m + (1 − 1/m)·len. Returns the latter
/// (integer-ceiled) bound, used as a property-test oracle.
[[nodiscard]] Time graham_bound(const Dag& dag, int num_processors);

}  // namespace fedcons
