// Reference implementations the equivalence suites compare the library's
// fast paths against. Test-only: nothing under src/ links this library.
//
// Each function is the straightforward form of a computation the library
// performs through a faster mechanism. Both must return the same answer and
// credit the same logical PerfCounters (util/perf_counters.h).
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "fedcons/analysis/edf_uniproc.h"
#include "fedcons/core/dag.h"
#include "fedcons/core/dag_task.h"
#include "fedcons/federated/minprocs.h"
#include "fedcons/federated/partition.h"
#include "fedcons/listsched/list_scheduler.h"
#include "fedcons/listsched/schedule.h"

namespace fedcons::reference {

/// Graham LS with allocation-per-call priority queues (the seed core). The
/// library's LsWorkspace core (listsched/ls_workspace.h) must produce
/// bit-identical schedules.
[[nodiscard]] TemplateSchedule list_schedule(
    const Dag& dag, int num_processors,
    ListPolicy policy = ListPolicy::kVertexOrder);

/// list_schedule with per-vertex actual execution times (each in [1, WCET]).
[[nodiscard]] TemplateSchedule list_schedule_with_exec_times(
    const Dag& dag, int num_processors, std::span<const Time> exec_times,
    ListPolicy policy = ListPolicy::kVertexOrder);

/// The direct processor-demand criterion: a forward scan of every absolute
/// deadline below the testing bound. The library's QPA must agree.
/// `max_points` caps the scan (ContractViolation when exceeded).
[[nodiscard]] EdfResult edf_schedulable_pdc(
    std::span<const SporadicTask> tasks, std::size_t max_points = 50'000'000);

/// The seed MINPROCS scan: one list_schedule probe per μ in [⌈δ⌉, m_r], no
/// Graham cap. The library's capped, blocked scan (federated/minprocs.h)
/// must return the same μ and σ after the same probes.
[[nodiscard]] std::optional<MinprocsResult> minprocs(
    const DagTask& task, int max_processors,
    ListPolicy policy = ListPolicy::kVertexOrder);

/// PARTITION with every acceptance probe recomputed from the bin's member
/// list, for every variant, fit and order. The library's per-bin aggregates
/// and certified-double screens (federated/partition_state.h) must produce
/// the same verdict, placements, failing task and dbf_star_evaluations.
/// options.provenance is ignored.
[[nodiscard]] PartitionResult partition_tasks(
    std::span<const SporadicTask> tasks, int num_processors,
    const PartitionOptions& options = {});

}  // namespace fedcons::reference
