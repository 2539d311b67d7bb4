// Reusable scratch state for the list-scheduling hot path.
//
// A MINPROCS scan runs Graham LS once per candidate processor count μ, and an
// acceptance sweep runs thousands of such scans per worker thread. The seed
// implementation paid three `std::priority_queue` backing allocations, two
// bookkeeping vectors, and a full `TemplateSchedule` construction per probe.
// `LsWorkspace` hoists all of that into one arena that is
//   * prepared once per (dag, policy) — the in-degree template and the
//     policy's priority positions, nothing the Dag already stores — and
//     reused across every μ probe of a MINPROCS scan, and
//   * owned thread-locally (`thread_ls_workspace`), so every trial a
//     `BatchRunner` worker executes reuses the same backing memory.
// A run reads the successor CSR (Dag::successor_csr, or its cached
// transitive reduction) and the WCETs straight from the Dag. A steady-state
// probe performs zero heap allocations; a `TemplateSchedule` is materialized
// only for the probe that actually fits.
//
// Queues:
//   ready   — a bitset over *priority positions*. ls_prepare sorts the
//             vertices once by (policy key, vertex id) and assigns each its
//             index in that order; popping the lowest set bit then yields
//             exactly the reference comparator's order at O(1) amortized per
//             operation (one countr_zero per pop).
//   running — a binary min-heap on (finish, vertex) in a raw array. Every
//             running job holds a processor, so it never holds more than
//             min(|V|, μ) entries; each entry carries its processor, so a
//             completion frees it without a per-vertex lookup. All jobs
//             finishing at the earliest instant complete before the next
//             dispatch, and completions at one instant commute (processor
//             release is a set union, in-degree decrements are
//             order-insensitive, and the ready bitset orders dispatch
//             regardless of insertion order).
//
// Results are bit-identical to the seed priority-queue implementation, kept
// as the test-only `reference::list_schedule` (tests/reference/): same
// dispatch pairing (k-th smallest ready key onto the k-th lowest idle
// processor), same completion instants, same deterministic tie-breaks. The
// equivalence suite pins this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fedcons/core/dag.h"
#include "fedcons/listsched/schedule.h"

namespace fedcons {

enum class ListPolicy;  // list_scheduler.h

/// Scratch buffers for repeated LS runs. All vectors keep their capacity
/// across runs; sizes are reset by ls_prepare / ls_run_prepared.
struct LsWorkspace {
  // Prepared once per (dag, policy) by ls_prepare.
  std::vector<std::uint32_t> ready_pos;   ///< vertex -> priority position
  std::vector<std::uint32_t> pos_to_v;    ///< priority position -> vertex
  std::vector<std::uint32_t> init_preds;  ///< in-degree template
  bool reduced = false;  ///< runs walk Dag::successor_csr(reduced)

  // ls_prepare scratch (priority-position assignment).
  std::vector<Time> keys;

  // Per-run scratch, written by ls_run_prepared.
  struct RunningJob {  // running-heap entry, ordered by (finish, vertex)
    Time finish;
    VertexId vertex;
    std::int32_t processor;
  };
  std::vector<std::uint32_t> remaining_preds;
  std::vector<std::uint64_t> ready_mask;   ///< bitset over priority positions
  std::vector<RunningJob> running;         ///< binary min-heap storage
  std::vector<std::uint64_t> free_mask;    ///< bitset of idle processors
  std::vector<ScheduledJob> jobs;          ///< output, dispatch order
  Time makespan = 0;                       ///< max finish of the last run
};

/// The calling thread's workspace arena. One instance per thread: safe with
/// the BatchRunner (each worker runs one trial at a time) and free of any
/// cross-thread synchronization.
[[nodiscard]] LsWorkspace& thread_ls_workspace() noexcept;

/// This thread's count of LS runs that completed entirely inside
/// already-allocated workspace memory (the zero-allocation steady state).
/// Deliberately NOT part of PerfCounters: arena-capacity history depends on
/// which trials previously ran on the thread, so per-trial attribution would
/// not be deterministic across thread counts. Read it for whole-process
/// diagnostics (fedcons_cli --json) only.
[[nodiscard]] std::uint64_t& workspace_reuse_count() noexcept;

/// Compute the (dag, policy) invariants into `ws`: priority positions (the
/// policy's (key, id) sort order, hoisted out of every ready-queue
/// operation) and the in-degree template of the successor relation the runs
/// will walk. Nothing the Dag stores is copied. Call once, then
/// ls_run_prepared any number of times with the same, unmodified dag.
///
/// With use_reduced_graph the runs walk the transitive reduction
/// (Dag::successor_csr(true), built and cached on the Dag on first use).
/// Every LS run is bit-identical either way: a transitively implied
/// predecessor never binds a ready instant (its witness path's tail finishes
/// no earlier), so only the per-completion edge-loop cost changes. MINPROCS
/// scans, which probe the same dag dozens of times, pass true; one-shot
/// callers keep the default and skip the reduction build.
/// Preconditions: dag acyclic and non-empty.
void ls_prepare(LsWorkspace& ws, const Dag& dag, ListPolicy policy,
                bool use_reduced_graph = false);

/// One Graham LS pass on `num_processors` processors using the prepared
/// state. exec_times empty → the dag's WCETs (the template-schedule case);
/// otherwise one actual execution time per vertex (caller validates).
/// Fills ws.jobs (dispatch order) and ws.makespan. Increments the
/// ls_invocations perf counter, and workspace_reuse_count() when every
/// per-run buffer already had the capacity this run needs (|V| in-degree
/// slots and jobs, the ready and idle-processor bitsets, min(|V|, μ) heap
/// entries), so the run allocated nothing.
/// Preconditions: ls_prepare ran for this dag; num_processors >= 1.
void ls_run_prepared(LsWorkspace& ws, const Dag& dag, int num_processors,
                     std::span<const Time> exec_times = {});

}  // namespace fedcons
