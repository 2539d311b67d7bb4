#include "fedcons/online/admission_session.h"

#include <algorithm>
#include <utility>

#include "fedcons/util/check.h"

namespace fedcons {

namespace {

PartitionOptions sanitized(PartitionOptions options) {
  options.provenance = nullptr;  // session provenance is per-resident
  return options;
}

}  // namespace

AdmissionSession::AdmissionSession(const Config& config)
    : config_(config),
      memo_(config.memo_capacity, config.list_policy),
      partition_(config.processors, sanitized(config.partition)) {
  FEDCONS_EXPECTS(config.processors >= 1);
  config_.partition = sanitized(config_.partition);
}

bool AdmissionSession::contains(SessionTaskId id) const noexcept {
  for (const Resident& r : residents_) {
    if (r.id == id) return true;
  }
  return false;
}

std::size_t AdmissionSession::resident_pos(SessionTaskId id) const {
  for (std::size_t i = 0; i < residents_.size(); ++i) {
    if (residents_[i].id == id) return i;
  }
  FEDCONS_EXPECTS_MSG(false, "AdmissionSession: no resident with that id");
  return residents_.size();
}

EventOutcome AdmissionSession::admit_internal(const DagTask& task,
                                              bool enforce) {
  FEDCONS_EXPECTS_MSG(task.deadline_class() != DeadlineClass::kArbitrary,
                      "FEDCONS is defined for constrained-deadline systems");
  EventOutcome out;
  const SessionTaskId id = next_id_++;

  if (task.is_high_density()) {
    const int m_r = config_.processors - total_mu_;
    Resident r(id, task, /*high=*/true);
    auto mp = memo_.lookup(task, m_r, &r.scan, &out.memo_hit);
    r.from_memo = out.memo_hit;
    if (!mp.has_value()) {
      // Phase-1 rejection (μ > m_r, or len > D): never applicable, whether
      // enforcing or not — the final system would fail at this very task.
      out.applied = false;
      out.reject_reason = FedconsFailure::kHighDensityPhase;
      out.failed_task = id;
      out.schedulable = partition_.ok();
      return out;
    }
    r.mu = mp->processors;
    r.sigma = std::move(mp->sigma);
    total_mu_ += r.mu;
    const PartitionEvent ev =
        partition_.resize(config_.processors - total_mu_);
    out.bins_revalidated += ev.bins_revalidated;
    out.placements_replayed += ev.placements_replayed;
    if (!ev.ok && enforce) {
      total_mu_ -= r.mu;  // undo: grow the pool back
      const PartitionEvent back =
          partition_.resize(config_.processors - total_mu_);
      out.bins_revalidated += back.bins_revalidated;
      out.placements_replayed += back.placements_replayed;
      out.applied = false;
      out.reject_reason = FedconsFailure::kPartitionPhase;
      out.failed_task = ev.failed_id;
      out.schedulable = partition_.ok();
      return out;
    }
    residents_.push_back(std::move(r));
    out.applied = true;
    out.schedulable = ev.ok;
    if (!ev.ok) {
      out.reject_reason = FedconsFailure::kPartitionPhase;
      out.failed_task = ev.failed_id;
    }
    out.admitted_ids.push_back(id);
    return out;
  }

  const PartitionEvent ev = partition_.admit(id, task.to_sequential());
  out.bins_revalidated += ev.bins_revalidated;
  out.placements_replayed += ev.placements_replayed;
  if (!ev.ok && enforce) {
    const PartitionEvent back = partition_.remove(id);  // exact undo
    out.bins_revalidated += back.bins_revalidated;
    out.placements_replayed += back.placements_replayed;
    out.applied = false;
    out.reject_reason = FedconsFailure::kPartitionPhase;
    out.failed_task = ev.failed_id;
    out.schedulable = partition_.ok();
    return out;
  }
  residents_.push_back(Resident(id, task, /*high=*/false));
  out.applied = true;
  out.schedulable = ev.ok;
  if (!ev.ok) {
    out.reject_reason = FedconsFailure::kPartitionPhase;
    out.failed_task = ev.failed_id;
  }
  out.admitted_ids.push_back(id);
  return out;
}

EventOutcome AdmissionSession::admit(const DagTask& task) {
  return admit_internal(task, /*enforce=*/true);
}

void AdmissionSession::release_internal(std::size_t pos, EventOutcome& out) {
  const Resident removed = std::move(residents_[pos]);
  residents_.erase(residents_.begin() + static_cast<std::ptrdiff_t>(pos));
  PartitionEvent ev;
  if (removed.high) {
    total_mu_ -= removed.mu;
    ev = partition_.resize(config_.processors - total_mu_);
  } else {
    ev = partition_.remove(removed.id);
  }
  out.bins_revalidated += ev.bins_revalidated;
  out.placements_replayed += ev.placements_replayed;
  out.schedulable = ev.ok;
  if (!ev.ok) {
    out.reject_reason = FedconsFailure::kPartitionPhase;
    out.failed_task = ev.failed_id;
  }
}

EventOutcome AdmissionSession::release(SessionTaskId id) {
  EventOutcome out;
  release_internal(resident_pos(id), out);
  out.applied = true;
  return out;
}

EventOutcome AdmissionSession::swap(const SwapBatch& batch) {
  EventOutcome out;
  // Validate the release list before mutating anything, so a caller error
  // surfaces as a clean ContractViolation rather than a half-applied batch.
  for (std::size_t i = 0; i < batch.release_ids.size(); ++i) {
    FEDCONS_EXPECTS_MSG(contains(batch.release_ids[i]),
                        "AdmissionSession::swap: unknown release id");
    for (std::size_t j = i + 1; j < batch.release_ids.size(); ++j) {
      FEDCONS_EXPECTS_MSG(batch.release_ids[i] != batch.release_ids[j],
                          "AdmissionSession::swap: duplicate release id");
    }
  }
  // Snapshot for the all-or-nothing guarantee. The memo cache is NOT part of
  // the snapshot: it is a pure cache, verdict-neutral by the replay contract,
  // so entries learned during a failed swap may stay.
  std::vector<Resident> snap_residents = residents_;
  const int snap_mu = total_mu_;
  IncrementalPartition snap_partition = partition_;

  bool failed = false;
  for (SessionTaskId id : batch.release_ids) {
    release_internal(resident_pos(id), out);
  }
  for (const DagTask& task : batch.admits) {
    EventOutcome step = admit_internal(task, /*enforce=*/false);
    out.bins_revalidated += step.bins_revalidated;
    out.placements_replayed += step.placements_replayed;
    out.memo_hit = out.memo_hit || step.memo_hit;
    if (!step.applied) {  // phase-1 infeasible: the final system would fail
      failed = true;
      out.reject_reason = step.reject_reason;
      out.failed_task = step.failed_task;
      break;
    }
    out.admitted_ids.push_back(step.admitted_ids.front());
  }
  if (!failed && !partition_.ok()) {
    failed = true;
    out.reject_reason = FedconsFailure::kPartitionPhase;
    out.failed_task = partition_.failed_id();
  }

  if (failed) {
    residents_ = std::move(snap_residents);
    total_mu_ = snap_mu;
    partition_ = std::move(snap_partition);
    out.applied = false;
    out.admitted_ids.clear();
    out.schedulable = partition_.ok();
    return out;
  }
  out.applied = true;
  out.schedulable = true;
  out.reject_reason = FedconsFailure::kNone;
  out.failed_task.reset();
  return out;
}

SessionVerdict AdmissionSession::verdict() const {
  SessionVerdict v;
  v.success = partition_.ok();
  int next_proc = 0;
  for (const Resident& r : residents_) {
    if (!r.high) continue;
    v.clusters.push_back(SessionCluster{r.id, next_proc, r.mu,
                                        r.sigma.makespan(), r.from_memo});
    next_proc += r.mu;
  }
  v.shared_processors = config_.processors - total_mu_;
  v.first_shared_processor = next_proc;
  if (!v.success) {
    v.failure = FedconsFailure::kPartitionPhase;
    v.failed_task = partition_.failed_id();
    return v;
  }
  v.failure = FedconsFailure::kNone;
  v.shared_assignment = partition_.assignment();
  return v;
}

TaskSystem AdmissionSession::resident_system(
    std::vector<SessionTaskId>* ids) const {
  if (ids != nullptr) ids->clear();
  std::vector<DagTask> tasks;
  tasks.reserve(residents_.size());
  for (const Resident& r : residents_) {
    tasks.push_back(r.task);
    if (ids != nullptr) ids->push_back(r.id);
  }
  return TaskSystem(std::move(tasks));
}

const MinprocsProvenance* AdmissionSession::scan_of(SessionTaskId id) const {
  const Resident& r = residents_[resident_pos(id)];
  return r.high ? &r.scan : nullptr;
}

bool AdmissionSession::from_memo(SessionTaskId id) const {
  return residents_[resident_pos(id)].from_memo;
}

}  // namespace fedcons
