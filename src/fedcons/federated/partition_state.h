// Persistent PARTITION state — the per-bin half of the online admission
// engine, and the bookkeeping core of the batch partitioner.
//
//  * PartitionState — the bins themselves: member tasks in placement order,
//    the utilization fold, and (on the aggregate-eligible variants) the
//    incremental DBF* prefix structure (analysis/dbf.h). It owns the
//    acceptance probe fits() and the bin-selection loop choose_bin(), which
//    the batch partitioner drives. The double mirrors the certified screens
//    read are kept current on every insert and remove; the exact BigRational
//    folds are caches filled only when a probe's exact fallback, a
//    diagnosis, or a best/worst-fit comparison reads them. Insertion and
//    removal are exact inverses: remove() rolls every aggregate back to the
//    representation it would have had if the member had never been inserted
//    (DbfStarAggregate contract), so a departed task leaves no numeric
//    residue. Verdicts, placements and dbf_star_evaluations equal the
//    recompute-per-probe reference::partition_tasks (tests/reference/).
//
//  * IncrementalPartition — the placement *sequence* of the paper's Fig. 4
//    (first-fit, deadline-monotonic; other fits and orders are batch-only E8
//    ablations and are rejected at construction): residents kept in
//    deadline order (ties in admission order), each with its chosen bin.
//    Events (admit / remove / resize) restore the invariant
//
//        state == partition_tasks(residents-in-admission-order, bins)
//
//    by replaying only the invalidated suffix of the order, lazily: entries
//    stay physically placed, placements whose prefix of candidate bins is
//    unchanged reuse their previous decision without probing (first-fit
//    monotonicity — adding demand to a bin never turns a rejection into an
//    acceptance), and only placements facing a shrunk bin, or whose own bin
//    changed, are re-probed. Probes actually run are counted in the
//    partition_bins_revalidated perf counter and reported per event.
//
// The equality above is structural (verdict, per-bin member ids, failure
// point) and is fuzzed by `fedcons_conform --online` against the batch
// partitioner after every event.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fedcons/analysis/dbf.h"
#include "fedcons/federated/partition.h"

namespace fedcons {

/// True when the options select the DBF*-aggregate probe (kPaperLiteral, or
/// kFull at 1 point); other configurations recompute each demand probe from
/// the bin's members.
[[nodiscard]] bool partition_uses_aggregates(const PartitionOptions& options);

/// The bins: persistent per-processor membership + exact aggregates.
///
/// Const reads (fits, choose_bin, bin_utilization, bin_demand().sum_at) fill
/// the exact caches, so one PartitionState must not be read from two threads
/// at once. The batch partitioner builds one per call, and AdmissionSession's
/// one-toucher contract covers the online state.
class PartitionState {
 public:
  PartitionState() = default;
  PartitionState(int num_bins, const PartitionOptions& options);

  [[nodiscard]] int num_bins() const noexcept {
    return static_cast<int>(bins_.size());
  }
  /// Grow appends empty bins; shrink requires the cut bins to be empty
  /// (callers unplace their members first — IncrementalPartition does).
  void set_num_bins(int n);

  /// The acceptance probe for placing `t` on bin k against current contents.
  [[nodiscard]] bool fits(int bin, const SporadicTask& t,
                          BinAttemptRecord* diag = nullptr) const;

  /// The bin-selection loop (first/best/worst fit) over all bins. Fills
  /// per-probe attempt records into `record` when non-null, reports the
  /// number of bins probed via `probed` when non-null, and feeds the
  /// partition_bins_touched metric. Returns the chosen bin or -1.
  [[nodiscard]] int choose_bin(const SporadicTask& t,
                               PlacementRecord* record = nullptr,
                               std::uint64_t* probed = nullptr) const;

  /// Add / roll back one member. `id` is a caller-stable label (input-span
  /// index for the batch partitioner, session task id online).
  void insert(int bin, std::size_t id, const SporadicTask& t);
  void remove(int bin, std::size_t id);

  /// Member ids of bin k, in placement order.
  [[nodiscard]] const std::vector<std::size_t>& bin_ids(int k) const;
  /// Exact Σ u over bin k's members (the left fold in placement order),
  /// folded on demand into the bin's cache. The reference stays valid until
  /// bin k next changes.
  [[nodiscard]] const BigRational& bin_utilization(int k) const;
  /// The DBF* aggregate of bin k (meaningful on aggregate-eligible options).
  [[nodiscard]] const DbfStarAggregate& bin_demand(int k) const;
  [[nodiscard]] std::size_t total_members() const noexcept;

  [[nodiscard]] const PartitionOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Bin {
    std::vector<std::size_t> ids;      // placement order
    std::vector<SporadicTask> tasks;   // parallel to ids
    /// Cache of the inclusive prefix fold of member utilizations (canonical
    /// left fold from 0/1), valid for the first util_prefix.size() members.
    /// Extended only by bin_utilization(); remove() cuts it back to the
    /// departed member's index. Each entry is a pure function of the members
    /// before it, so insert-then-remove restores the exact prior
    /// representations.
    mutable std::vector<BigRational> util_prefix;
    /// Double mirror of the fold (simd::util_term terms; +inf poison for
    /// out-of-range parameters), kept current on every insert and remove —
    /// the certified utilization screen's input.
    std::vector<double> util_prefix_d;
    DbfStarAggregate demand;  // maintained only when aggregates are on
  };
  static const BigRational kZeroUtil;

  PartitionOptions options_;
  std::vector<Bin> bins_;
  mutable std::vector<SporadicTask> trial_scratch_;  // exact-EDF probe reuse
};

/// Outcome of one IncrementalPartition event.
struct PartitionEvent {
  bool ok = false;            ///< all residents placed after the event
  std::size_t failed_id = 0;  ///< iff !ok: id of the first unplaceable task
  std::uint64_t bins_revalidated = 0;  ///< fits() probes run by the replay
  std::size_t placements_replayed = 0; ///< suffix placements re-executed
};

/// The placement sequence: keeps `state() == partition_tasks(residents)`
/// across admit / remove / resize, replaying only the invalidated suffix.
class IncrementalPartition {
 public:
  IncrementalPartition() = default;
  /// Precondition: options.fit is first-fit and options.order is
  /// deadline-monotonic (ContractViolation otherwise).
  IncrementalPartition(int num_bins, const PartitionOptions& options);

  /// Admit a task under a caller-stable unique id. The task becomes resident
  /// unconditionally (even when the resulting partition fails — callers that
  /// want reject-on-failure semantics undo with remove(), which restores the
  /// exact prior state). Returns the resulting verdict.
  PartitionEvent admit(std::size_t id, const SporadicTask& task);

  /// Remove a resident by id (ContractViolation if absent).
  PartitionEvent remove(std::size_t id);

  /// Change the processor count (the shared pool shrinks or grows as
  /// MINPROCS clusters come and go).
  PartitionEvent resize(int num_bins);

  [[nodiscard]] bool ok() const noexcept { return !fail_at_.has_value(); }
  /// Id of the first unplaceable resident, when !ok().
  [[nodiscard]] std::optional<std::size_t> failed_id() const;
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] int num_bins() const noexcept { return state_.num_bins(); }
  [[nodiscard]] const PartitionState& state() const noexcept { return state_; }

  /// assignment[k] = resident ids on bin k in placement order — the shape of
  /// PartitionResult::assignment. Precondition: ok().
  [[nodiscard]] std::vector<std::vector<std::size_t>> assignment() const;

  /// Resident ids in partition order (diagnostics / tests).
  [[nodiscard]] std::vector<std::size_t> order_ids() const;

 private:
  struct Placement {
    std::size_t id = 0;
    SporadicTask task;
    std::uint64_t seq = 0;  ///< admission sequence number (arrival order)
    int bin = -1;       ///< current bin; -1 while unplaced
    int prev_bin = -1;  ///< bin before the in-flight event (replay fast path)
  };

  [[nodiscard]] std::size_t position_of(std::size_t id) const;
  /// Re-walk the order from `pos` without unplacing it first: entries stay
  /// physically placed, and a bin is synchronized with the walk (its
  /// not-yet-reached members unplaced) only when it must actually be probed.
  /// Bins no probe touches keep their aggregates untouched, so a
  /// standing-decision suffix costs no BigRational work at all, and an
  /// event's work grows with the tasks it changes. `dirty` is directional
  /// (0 untouched / 1 grew / 2 shrunk): rejections of grown bins stand by
  /// first-fit monotonicity, so an admission re-probes only each later
  /// member of the bin it landed in, not every entry placed above it.
  /// Restores the invariant or records the failure point.
  PartitionEvent replay(std::size_t pos, std::vector<char> dirty);

  PartitionState state_;
  std::vector<Placement> order_;
  std::optional<std::size_t> fail_at_;  ///< index of first unplaced entry
  std::uint64_t next_seq_ = 0;
};

}  // namespace fedcons
