#include "fedcons/federated/minprocs_memo.h"

#include <algorithm>
#include <utility>

#include "fedcons/obs/metrics.h"
#include "fedcons/util/check.h"
#include "fedcons/util/perf_counters.h"

namespace fedcons {

MinprocsMemo::MinprocsMemo(std::size_t capacity, ListPolicy policy)
    : capacity_(capacity), policy_(policy) {
  FEDCONS_EXPECTS(capacity >= 1);
}

std::optional<MinprocsResult> MinprocsMemo::replay(
    const Entry& entry, int max_processors,
    MinprocsProvenance* provenance) const {
  if (provenance != nullptr) {
    *provenance = MinprocsProvenance{};
    provenance->scan_lb = entry.scan_lb;
    provenance->scan_cap = entry.scan_cap;
    provenance->max_processors = max_processors;
  }
  if (entry.len_exceeds_deadline) {
    // The real call returns before any probe; only the provenance header is
    // populated (mirrors minprocs()'s early exit).
    if (provenance != nullptr) provenance->len_exceeds_deadline = true;
    return std::nullopt;
  }

  const bool found = entry.mu <= max_processors;
  // Probes the real scan would have run: all of [lb, μ] on success, the
  // prefix [lb, last] on exhaustion. On exhaustion μ > m_r and μ ≤ cap give
  // m_r < cap, so last = m_r.
  const std::size_t ran =
      found ? entry.probes.size()
            : static_cast<std::size_t>(
                  std::max(0, max_processors - entry.scan_lb + 1));
  FEDCONS_ASSERT(ran <= entry.probes.size());

  PerfCounters& pc = perf_counters();
  pc.ls_invocations += ran;
  pc.minprocs_scan_iterations += ran;
  if (entry.scan_cap < max_processors) {
    // Graham-cap cut: candidates (cap, m_r] never probed (minprocs.cpp).
    pc.ls_probes_pruned += static_cast<std::uint64_t>(
        max_processors - static_cast<int>(std::min<Time>(
                             max_processors, entry.scan_cap)));
  }

  if (provenance != nullptr) {
    provenance->probes.assign(entry.probes.begin(),
                              entry.probes.begin() +
                                  static_cast<std::ptrdiff_t>(ran));
    for (const MinprocsProbeRecord& p : provenance->probes) {
      if (p.makespan < provenance->best_makespan) {
        provenance->best_makespan = p.makespan;
        provenance->best_mu = p.mu;
      }
    }
    if (found) {
      provenance->satisfied = true;
      provenance->chosen_mu = entry.mu;
    }
  }

  if (!found) return std::nullopt;
  obs::observe_minprocs_mu(entry.mu);
  return MinprocsResult{entry.mu, entry.sigma};
}

std::optional<MinprocsResult> MinprocsMemo::lookup(
    const DagTask& task, int max_processors, MinprocsProvenance* provenance,
    bool* was_hit) {
  FEDCONS_EXPECTS(max_processors >= 0);
  const DagHash key = canonical_task_hash(task);

  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
      ++stats_.hits;
      ++perf_counters().minprocs_memo_hits;
      obs::observe_memo_lookup(/*hit=*/true);
      if (was_hit != nullptr) *was_hit = true;
      return replay(lru_.front(), max_processors, provenance);
    }
    ++stats_.misses;
  }
  ++perf_counters().minprocs_memo_misses;
  obs::observe_memo_lookup(/*hit=*/false);
  if (was_hit != nullptr) *was_hit = false;

  // Run the real scan outside the lock (concurrent misses duplicate work
  // benignly). Capture the trajectory locally so the entry keeps it even
  // when the caller didn't ask for provenance.
  MinprocsProvenance trajectory;
  std::optional<MinprocsResult> result =
      minprocs(task, max_processors, policy_, {.provenance = &trajectory});
  if (provenance != nullptr) *provenance = trajectory;

  // Cache only content-determined outcomes: a success pins μ for every m_r;
  // len > D is hopeless for every m_r. An exhausted scan (μ > m_r) is a
  // fact about this m_r only, so it is not cached.
  if (result.has_value() || trajectory.len_exceeds_deadline) {
    Entry entry;
    entry.key = key;
    entry.len_exceeds_deadline = trajectory.len_exceeds_deadline;
    entry.scan_lb = trajectory.scan_lb;
    entry.scan_cap = trajectory.scan_cap;
    if (result.has_value()) {
      entry.mu = result->processors;
      entry.sigma = result->sigma;
      entry.probes = trajectory.probes;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(key) == index_.end()) {  // a racing miss may have won
      lru_.push_front(std::move(entry));
      index_[key] = lru_.begin();
      if (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
      }
    }
  }
  return result;
}

MinprocsMemoStats MinprocsMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t MinprocsMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void MinprocsMemo::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace fedcons
