// AdmissionSession — the long-lived incremental admission engine.
//
// The batch entry point (fedcons_schedule) answers one whole-system question
// and forgets everything. An online system asks a *sequence* of questions —
// "may this task join?", "task k left", "replace this set atomically" — and
// re-running the full analysis per event costs O(system) each time. The
// session keeps the analysis state alive between events and re-derives only
// what an event invalidates:
//
//   phase 1 (MINPROCS)  — μ_i is a pure function of task content, so the
//                         session resolves it through a content-addressed
//                         memo cache (federated/minprocs_memo.h) keyed by the
//                         canonical DAG hash; repeated content costs a hash.
//   phase 2 (PARTITION) — per-bin DBF*/utilization aggregates persist in an
//                         IncrementalPartition (federated/partition_state.h);
//                         an event replays only the invalidated suffix of
//                         the first-fit, deadline-monotonic placement order.
//
// Semantic anchor — the session is ALWAYS equivalent to the batch run over
// its residents:
//
//     verdict() ≡ fedcons_schedule(TaskSystem(residents in admission order),
//                                  processors, options)
//
// structurally: same success/failure/failed task, same μ per cluster, same
// processor offsets, same per-bin membership in the same order. The
// `fedcons_conform --online` differential fuzzer checks this after every
// event of randomized traces.
//
// Event semantics:
//   admit(task)  — admission-controlled: applied iff the resulting system is
//                  schedulable; a rejected admit leaves the session state
//                  exactly as before (undone by the same replay machinery).
//   release(id)  — always applied (a departure is a fact, not a request).
//                  Under first-fit, removing a task can REDUCE schedulability
//                  of what remains (placements shift; the well-known
//                  partitioned-scheduling anomaly), so the session can sit in
//                  a failed state; verdict() then reports the same
//                  partition-phase failure the batch run would.
//   swap(batch)  — atomic mode change: all releases + admits applied
//                  together iff the final system is schedulable, otherwise
//                  NO change at all (state restored from a snapshot).
//
// Because admits are admission-controlled and releases only free capacity,
// resident high-density tasks always satisfy Σ μ ≤ m and every phase-1
// prefix; a resident failure is therefore always partition-phase.
//
// Cost of an event: a resident points at shared, immutable task content
// (SharedTask) instead of holding a copy, the outcome carries its ids
// without a heap, and the partition replay keeps its scratch between
// events, so once the session's containers have grown an admit by handle
// or a release of a low-density task allocates nothing.
//
// Threading contract: a session is a plain value with no internal locking —
// at most one thread may touch it at a time, even for const reads (the
// partition state and the DAGs fill their caches on read). It does NOT have
// to be the *same* thread: the session caches no thread identity (no
// thread_locals, no TID-keyed state), so an owner may hand it between
// threads as long as hand-offs are externally serialized with a
// happens-before edge (a mutex, a queue, a joined task). serve/server.cpp
// needs none of that: a session belongs to one connection, and only that
// connection's thread ever touches it.
// Shared content follows the same rule across every session that holds it:
// a Dag fills its caches lazily on const reads (the MINPROCS memo's hash
// and scan read them), so one SharedTask must not be read from two threads
// at once. The daemon registers content per connection, so only that
// connection's thread reads it, whichever of its sessions the content
// lives in.
// The memo cache underneath has no locking either: the session owns it, so
// it shares the session's one-toucher rule, and hit/miss sequences stay
// deterministic per event sequence.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "fedcons/core/task_system.h"
#include "fedcons/federated/fedcons_algorithm.h"
#include "fedcons/federated/minprocs_memo.h"
#include "fedcons/federated/partition_state.h"
#include "fedcons/util/check.h"

namespace fedcons {

/// Session-scoped task handle: assigned sequentially from 0 by admit order
/// (rejected admits and failed swaps still consume ids, keeping trace replay
/// deterministic).
using SessionTaskId = std::size_t;

/// Immutable task content, shared by the residents (and sessions) that
/// admitted it; see the threading contract above.
using SharedTask = std::shared_ptr<const DagTask>;

/// The ids one event admitted. Each admit takes the next id and a failed
/// swap clears them, so they are always consecutive: a first id and a
/// count, read like a const container.
class AdmittedIds {
 public:
  /// Input iterator over the ids; std::vector's iterator-pair constructor,
  /// assign and insert accept it.
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SessionTaskId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SessionTaskId;

    iterator() = default;
    explicit iterator(SessionTaskId id) noexcept : id_(id) {}
    SessionTaskId operator*() const noexcept { return id_; }
    iterator& operator++() noexcept {
      ++id_;
      return *this;
    }
    iterator operator++(int) noexcept {
      const iterator was = *this;
      ++id_;
      return was;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    SessionTaskId id_ = 0;
  };

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] SessionTaskId operator[](std::size_t i) const {
    FEDCONS_EXPECTS(i < count_);
    return first_ + i;
  }
  [[nodiscard]] SessionTaskId front() const { return (*this)[0]; }
  [[nodiscard]] iterator begin() const noexcept { return iterator(first_); }
  [[nodiscard]] iterator end() const noexcept {
    return iterator(first_ + count_);
  }
  /// Append `id`, which must follow the last id held.
  void push_back(SessionTaskId id) {
    if (count_ == 0) first_ = id;
    FEDCONS_ASSERT(id == first_ + count_);
    ++count_;
  }
  void clear() noexcept { count_ = 0; }

 private:
  SessionTaskId first_ = 0;
  std::size_t count_ = 0;
};

/// Outcome of one session event.
struct EventOutcome {
  bool applied = false;      ///< the event mutated the session
  bool schedulable = false;  ///< verdict after the event
  /// For rejected admits / failed swaps: which phase refused. For applied
  /// events that leave a failed state (releases): kPartitionPhase.
  FedconsFailure reject_reason = FedconsFailure::kNone;
  /// Id of the blocking task where applicable (rejected admit: the admitted
  /// task on phase-1 rejection, else the first unplaceable resident).
  std::optional<SessionTaskId> failed_task;
  /// Ids assigned to admitted tasks (admit: one; swap: one per admit, empty
  /// again if the swap rolled back).
  AdmittedIds admitted_ids;
  bool memo_hit = false;  ///< a phase-1 lookup was served from the memo cache
  /// PARTITION probes actually evaluated by the delta re-analysis (includes
  /// undo replays of rejected admits).
  std::uint64_t bins_revalidated = 0;
  std::size_t placements_replayed = 0;
};

/// One dedicated cluster in the session verdict (mirrors ClusterAssignment
/// over session ids; σ itself stays inside the session).
struct SessionCluster {
  SessionTaskId task = 0;
  int first_processor = 0;
  int num_processors = 0;   ///< μ_i
  Time sigma_makespan = 0;  ///< makespan of the stored template schedule
  bool from_memo = false;   ///< μ/σ were served from the memo cache
};

/// Materialized verdict — field-for-field comparable with FedconsResult on
/// the resident system (shared_assignment only meaningful on success, like
/// the batch result).
struct SessionVerdict {
  bool success = false;
  FedconsFailure failure = FedconsFailure::kNone;
  std::optional<SessionTaskId> failed_task;
  std::vector<SessionCluster> clusters;
  int shared_processors = 0;
  int first_shared_processor = 0;
  std::vector<std::vector<SessionTaskId>> shared_assignment;
};

class AdmissionSession {
 public:
  struct Config {
    int processors = 1;  ///< m (≥ 1)
    ListPolicy list_policy = ListPolicy::kVertexOrder;
    /// Provenance pointer is ignored. PARTITION runs first-fit in
    /// deadline-monotonic order online (IncrementalPartition rejects other
    /// fits and orders at construction).
    PartitionOptions partition;
    std::size_t memo_capacity = MinprocsMemo::kDefaultCapacity;
  };

  explicit AdmissionSession(const Config& config);

  AdmissionSession(const AdmissionSession&) = delete;
  AdmissionSession& operator=(const AdmissionSession&) = delete;

  /// Admission-controlled join; rejected admits leave the state untouched.
  /// A resident shares `task` (one reference count); the DagTask overload
  /// makes the shared copy first.
  EventOutcome admit(const SharedTask& task);
  EventOutcome admit(const DagTask& task);

  /// Departure; always applies. ContractViolation on an unknown id.
  EventOutcome release(SessionTaskId id);

  /// Atomic mode change: releases then admits, all-or-nothing.
  struct SwapBatch {
    std::vector<SessionTaskId> release_ids;
    std::vector<SharedTask> admits;
  };
  EventOutcome swap(const SwapBatch& batch);

  /// O(residents) materialization of the current verdict.
  [[nodiscard]] SessionVerdict verdict() const;

  /// The residents as a TaskSystem in admission order — the system the
  /// equivalence contract quantifies over. When `ids` is non-null it
  /// receives the session id of each TaskSystem index.
  [[nodiscard]] TaskSystem resident_system(
      std::vector<SessionTaskId>* ids = nullptr) const;

  [[nodiscard]] std::size_t num_residents() const noexcept {
    return residents_.size();
  }
  [[nodiscard]] bool contains(SessionTaskId id) const noexcept;
  [[nodiscard]] int processors() const noexcept { return config_.processors; }
  [[nodiscard]] int shared_processors() const noexcept {
    return config_.processors - total_mu_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] MinprocsMemoStats memo_stats() const { return memo_.stats(); }
  /// Phase-1 scan trajectory of a resident high-density task (replayed from
  /// the memo entry on hits), for --explain rendering. Null for low tasks.
  [[nodiscard]] const MinprocsProvenance* scan_of(SessionTaskId id) const;
  /// Whether a resident high task's μ came from the memo cache.
  [[nodiscard]] bool from_memo(SessionTaskId id) const;

 private:
  struct Resident {
    Resident(SessionTaskId id, SharedTask task, bool high)
        : id(id), task(std::move(task)), high(high) {}

    SessionTaskId id;
    SharedTask task;
    bool high;
    // High-density only:
    int mu = 0;
    TemplateSchedule sigma;
    bool from_memo = false;
    MinprocsProvenance scan;
  };

  [[nodiscard]] std::size_t resident_pos(SessionTaskId id) const;
  /// Shared admit path; when `enforce` is false the admit applies even if it
  /// leaves a failed state (swap applies unconditionally, then decides).
  EventOutcome admit_internal(const SharedTask& task, bool enforce);
  void release_internal(std::size_t pos, EventOutcome& out);

  Config config_;
  MinprocsMemo memo_;
  IncrementalPartition partition_;
  std::vector<Resident> residents_;  ///< admission order
  int total_mu_ = 0;                 ///< Σ μ over resident high tasks
  SessionTaskId next_id_ = 0;
};

}  // namespace fedcons
