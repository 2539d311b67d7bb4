// Reusable scratch state for the list-scheduling hot path.
//
// A MINPROCS scan runs Graham LS once per candidate processor count μ, and an
// acceptance sweep runs thousands of such scans per worker thread. The seed
// implementation paid three `std::priority_queue` backing allocations, two
// bookkeeping vectors, and a full `TemplateSchedule` construction per probe.
// `LsWorkspace` hoists all of that into one arena that is
//   * prepared once per (dag, policy) — priority keys collapsed to dense
//     positions, successors flattened to CSR, WCETs, in-degrees — and reused
//     across every μ probe of a MINPROCS scan, and
//   * owned thread-locally (`thread_ls_workspace`), so every trial a
//     `BatchRunner` worker executes reuses the same backing memory.
// A steady-state probe performs zero heap allocations; a `TemplateSchedule`
// is materialized only for the probe that actually fits.
//
// Neither priority queue is a comparison heap:
//   ready   — a bitset over *priority positions*. ls_prepare sorts the
//             vertices once by (policy key, vertex id) and assigns each its
//             index in that order; popping the lowest set bit then yields
//             exactly the reference comparator's order at O(1) amortized per
//             operation (one countr_zero per pop).
//   running — a timing wheel: bucket `finish mod B` holds the jobs finishing
//             at that instant, threaded through a per-vertex `next` link
//             (zero allocation), with a bitmap of non-empty buckets. All
//             in-flight finishes lie in (now, now + max_exec], so B =
//             bit_ceil(max_exec + 1) buckets make the slot unambiguous and
//             advancing time is a short rotated-bitmap scan. Jobs within one
//             bucket drain in arbitrary order — sound because completions at
//             one instant commute: processor release is a set union and
//             in-degree decrements are order-insensitive, and the ready
//             bitset orders dispatch regardless of insertion order.
// Exec times outside the wheel window (zero, or above kMaxWheelExec — no
// generator in this repo produces either) take a binary-heap fallback with
// the reference's exact (finish, vertex) ordering.
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

/// Largest execution time the timing wheel handles; larger values (or
/// non-positive ones from a caller-supplied exec_times) fall back to the
/// binary-heap running queue.
inline constexpr Time kMaxWheelExec = 4095;

/// Scratch buffers for repeated LS runs. All vectors keep their capacity
/// across runs; sizes are reset by ls_prepare / ls_run_prepared.
struct LsWorkspace {
  // Prepared once per (dag, policy) by ls_prepare.
  std::vector<std::uint32_t> ready_pos;   ///< vertex -> priority position
  std::vector<std::uint32_t> pos_to_v;    ///< priority position -> vertex
  std::vector<std::uint32_t> succ_off;    ///< CSR offsets, size n+1
  std::vector<VertexId> succ_flat;        ///< CSR successor lists
  std::vector<std::uint16_t> succ_flat16;  ///< half-width image when n ≤ 2^16
  std::vector<Time> wcets;                ///< default execution times
  std::vector<std::uint32_t> init_preds;  ///< in-degree template
  Time max_wcet = 1;                      ///< wheel sizing for the WCET case

  // ls_prepare scratch (priority-position assignment).
  std::vector<Time> keys;

  // Per-run scratch, written by ls_run_prepared.
  struct RunningJob {  // fallback-heap element, ordered by (finish, vertex)
    Time finish;
    VertexId vertex;
  };
  std::vector<std::uint32_t> remaining_preds;
  std::vector<std::uint64_t> ready_mask;   ///< bitset over priority positions
  std::vector<std::uint32_t> wheel_head;   ///< bucket -> first vertex (or ~0)
  std::vector<std::uint32_t> wheel_next;   ///< vertex -> next in its bucket
  std::vector<std::uint64_t> wheel_mask;   ///< bitmap of non-empty buckets
  std::vector<RunningJob> running;         ///< fallback binary min-heap
  std::vector<std::int32_t> proc_of;       ///< processor per vertex
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
/// operation), the CSR successor image, WCETs, and the in-degree template.
/// Call once, then ls_run_prepared any number of times with the same dag.
///
/// With use_reduced_graph the CSR image and in-degree template come from
/// Dag::reduced_successors — the transitive reduction. Every LS run is
/// bit-identical either way: a transitively implied predecessor never binds
/// a ready instant (its witness path's tail finishes no earlier), so only
/// the per-completion edge-loop cost changes. MINPROCS scans, which probe
/// the same dag dozens of times, pass true; one-shot callers keep the
/// default and skip the reduction build.
/// Preconditions: dag acyclic and non-empty.
void ls_prepare(LsWorkspace& ws, const Dag& dag, ListPolicy policy,
                bool use_reduced_graph = false);

/// One Graham LS pass on `num_processors` processors using the prepared
/// state. exec_times empty → the dag's WCETs (the template-schedule case);
/// otherwise one actual execution time per vertex (caller validates).
/// Fills ws.jobs (dispatch order) and ws.makespan. Increments the
/// ls_invocations perf counter, and workspace_reuse_count() when the run
/// completed without growing any principal workspace buffer.
/// Preconditions: ls_prepare ran for this dag; num_processors >= 1.
void ls_run_prepared(LsWorkspace& ws, const Dag& dag, int num_processors,
                     std::span<const Time> exec_times = {});

/// Blocked μ scan: one ls_run_prepared per candidate in `mus`, in order,
/// recording each run's makespan in makespans[i] and stopping after the first
/// candidate whose makespan ≤ fit_deadline (Graham-bound monotonicity makes
/// any later candidate redundant for the MINPROCS decision). Returns the
/// number of probes run — the index of the first fitting candidate plus one,
/// or mus.size() when none fits; makespans beyond that count are untouched.
///
/// The probe sequence, per-probe results, and ls_invocations credits are
/// identical to the caller looping ls_run_prepared itself — the block entry
/// point exists so the whole scan's state resets run through the dispatched
/// fill/copy primitives and are credited in ls_probes_blocked.
/// Preconditions: ls_prepare ran for this dag; makespans.size() >= mus.size().
[[nodiscard]] std::size_t ls_run_blocked(LsWorkspace& ws, const Dag& dag,
                                         std::span<const int> mus,
                                         Time fit_deadline,
                                         std::span<Time> makespans);

}  // namespace fedcons
