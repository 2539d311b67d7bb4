// Lightweight analysis-effort counters.
//
// The experiment engine reports, per trial, how much analytical work each
// verdict cost: List Scheduling invocations, MINPROCS scan iterations, and
// DBF*/DBF-approx evaluations. Counters are thread_local so the parallel
// batch runner can attribute work to the trial executing on that thread
// without synchronization; instrumented hot paths pay one TLS increment.
//
// Usage pattern (engine/batch_runner): snapshot `perf_counters()` before a
// trial, subtract after — the delta is exactly that trial's work because one
// worker thread runs one trial at a time.
#pragma once

#include <cstdint>

namespace fedcons {

/// Monotone per-thread work counters (see header comment).
///
/// Counting convention: counters measure *logical* analytical work, not
/// physical function calls. A fast path that decides the same question
/// without performing every call credits the count the straightforward path
/// would have paid (see the PARTITION state's certified scan and the
/// MINPROCS memo), so counter totals are invariant under the perf
/// optimizations, deterministic per trial, and comparable across engine
/// versions. The straightforward paths live on as the test-only references
/// in tests/reference/, and the equivalence suites compare counters against
/// them.
/// ls_probes_pruned exposes the scan optimization's effect but is still a
/// pure function of the trial's inputs. The one physical counter
/// (workspace_reuses) lives OUTSIDE this struct — see ls_workspace.h —
/// because arena-capacity history depends on which trials previously ran on
/// the thread, which is not deterministic across thread counts.
struct PerfCounters {
  std::uint64_t ls_invocations = 0;         ///< list_schedule* calls
  std::uint64_t minprocs_scan_iterations = 0;  ///< LS probes across MINPROCS scans
  std::uint64_t dbf_star_evaluations = 0;   ///< dbf_approx / dbf_approx_k calls
  /// Scan candidates removed from a MINPROCS worst-case range [⌈δ⌉, m_r] by
  /// the Graham-bound cap μ_ub (minprocs_scan_cap): Σ max(0, m_r − cap).
  std::uint64_t ls_probes_pruned = 0;
  /// Conformance-harness work (conform/harness.h): (algorithm, system)
  /// oracle evaluations — an admit() plus, on acceptance, a full composition
  /// replay in simulation.
  std::uint64_t conform_trials = 0;
  /// Oracle evaluations whose verdict was "schedulable" yet whose replay
  /// missed a deadline — each one is a refuted safety claim.
  std::uint64_t conform_violations = 0;
  /// Candidate reductions evaluated while minimizing violations (each costs
  /// one oracle re-run; see conform/shrinker.h).
  std::uint64_t conform_shrink_steps = 0;
  /// Fault-injection layer (fedcons/fault/): jobs whose release or execution
  /// time a FaultPlan perturbed — a pure function of (plan, generated jobs),
  /// so deterministic per trial like every other logical counter.
  std::uint64_t fault_injections = 0;
  /// Supervision interventions: EDF budget throttles, arrival-guard
  /// deferrals, and template-slot clamps (zero whenever no fault plan is in
  /// effect — enforcement never fires on within-contract behaviour).
  std::uint64_t fault_enforcements = 0;
  /// Isolation fuzz trials (conform/isolation.h run_isolation_fuzz), one per
  /// trial whether or not FEDCONS admits its system.
  std::uint64_t fault_isolation_trials = 0;
  /// Online admission layer (federated/minprocs_memo.h, online/): MINPROCS
  /// memo-cache lookups answered from a cached scan vs. scans actually run.
  /// Deterministic per event sequence — a memo instance is owned by one
  /// session and never shared across threads, so hit/miss history is a pure
  /// function of the events fed to that session (and its cache capacity).
  /// Note the memo credits the *logical* scan counters above on every hit,
  /// so ls_invocations / minprocs_scan_iterations stay invariant under
  /// caching; these two only expose how much physical work the cache saved.
  std::uint64_t minprocs_memo_hits = 0;
  std::uint64_t minprocs_memo_misses = 0;
  /// Partition placements re-probed by the online delta re-analysis: fits()
  /// probes actually evaluated while replaying the invalidated suffix of the
  /// placement order (clean-bin placements are reused without probing).
  std::uint64_t partition_bins_revalidated = 0;
  /// Demand breakpoints decided by the certified-double kernel without the
  /// exact rational fallback (simd/dbf_kernel.h). Like ls_probes_pruned this
  /// exposes the fast path's reach while remaining a pure function of the
  /// trial's inputs.
  std::uint64_t simd_breakpoints_vectorized = 0;

  PerfCounters& operator+=(const PerfCounters& rhs) noexcept {
    ls_invocations += rhs.ls_invocations;
    minprocs_scan_iterations += rhs.minprocs_scan_iterations;
    dbf_star_evaluations += rhs.dbf_star_evaluations;
    ls_probes_pruned += rhs.ls_probes_pruned;
    conform_trials += rhs.conform_trials;
    conform_violations += rhs.conform_violations;
    conform_shrink_steps += rhs.conform_shrink_steps;
    fault_injections += rhs.fault_injections;
    fault_enforcements += rhs.fault_enforcements;
    fault_isolation_trials += rhs.fault_isolation_trials;
    minprocs_memo_hits += rhs.minprocs_memo_hits;
    minprocs_memo_misses += rhs.minprocs_memo_misses;
    partition_bins_revalidated += rhs.partition_bins_revalidated;
    simd_breakpoints_vectorized += rhs.simd_breakpoints_vectorized;
    return *this;
  }
  /// Delta between two snapshots of the same thread's counters.
  [[nodiscard]] PerfCounters operator-(const PerfCounters& rhs) const noexcept {
    return {ls_invocations - rhs.ls_invocations,
            minprocs_scan_iterations - rhs.minprocs_scan_iterations,
            dbf_star_evaluations - rhs.dbf_star_evaluations,
            ls_probes_pruned - rhs.ls_probes_pruned,
            conform_trials - rhs.conform_trials,
            conform_violations - rhs.conform_violations,
            conform_shrink_steps - rhs.conform_shrink_steps,
            fault_injections - rhs.fault_injections,
            fault_enforcements - rhs.fault_enforcements,
            fault_isolation_trials - rhs.fault_isolation_trials,
            minprocs_memo_hits - rhs.minprocs_memo_hits,
            minprocs_memo_misses - rhs.minprocs_memo_misses,
            partition_bins_revalidated - rhs.partition_bins_revalidated,
            simd_breakpoints_vectorized - rhs.simd_breakpoints_vectorized};
  }
  [[nodiscard]] bool operator==(const PerfCounters&) const noexcept = default;
};

/// The calling thread's counters (mutable; never reset by the library).
[[nodiscard]] PerfCounters& perf_counters() noexcept;

}  // namespace fedcons
