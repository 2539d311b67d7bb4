// Content-addressed MINPROCS memo cache — the per-task half of the online
// admission engine (online/admission_session.h).
//
// MINPROCS is a pure function of task *content* (graph topology + WCETs +
// D/T) plus the list policy: the remaining
// processor count m_r only decides whether the content-determined μ is
// affordable. The memo therefore keys entries by canonical_task_hash
// (core/dag_hash.h) and stores the content-determined scan outcome — μ, the
// template schedule σ, and the full probe trajectory — answering later
// lookups for ANY m_r from the entry:
//
//   μ ≤ m_r  → MinprocsResult{μ, σ}       (the scan would have found μ)
//   μ > m_r  → nullopt                    (the scan would have exhausted m_r)
//
// Counter contract: a hit credits the exact logical counters the real scan
// would have paid for that (task, m_r) — one ls_invocations and one
// minprocs_scan_iterations per probe the scan would have run, ls_probes_pruned
// for the Graham-cap cut, and the observe_minprocs_mu sample on success — so
// every counter downstream of the session is invariant under caching. The
// cache-effect counters minprocs_memo_hits/minprocs_memo_misses and the obs
// metrics registry's memo_hits/memo_misses expose the savings.
//
// Provenance contract: entries store the miss-time probe trajectory, so a hit
// can reconstruct the same MinprocsProvenance the real scan would have
// produced (truncated to the probes a smaller m_r would have run). The
// AdmissionSession marks such records as served-from-cache for --explain.
//
// Thread safety: none. One AdmissionSession owns a memo and one thread
// touches it (online/admission_session.h).
//
// One memo instance is bound to one list policy; sharing an instance across
// sessions with different policies is a caller error.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "fedcons/core/dag_hash.h"
#include "fedcons/federated/minprocs.h"

namespace fedcons {

/// Lifetime totals of one memo instance (monotone).
struct MinprocsMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class MinprocsMemo {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit MinprocsMemo(std::size_t capacity = kDefaultCapacity,
                        ListPolicy policy = ListPolicy::kVertexOrder);

  MinprocsMemo(const MinprocsMemo&) = delete;
  MinprocsMemo& operator=(const MinprocsMemo&) = delete;

  /// Drop-in for minprocs(task, max_processors, policy, {provenance}):
  /// identical verdicts, μ, σ, logical counters, and provenance trajectory.
  /// `was_hit`, when non-null, reports whether the answer came from cache.
  [[nodiscard]] std::optional<MinprocsResult> lookup(
      const DagTask& task, int max_processors,
      MinprocsProvenance* provenance = nullptr, bool* was_hit = nullptr);

  [[nodiscard]] MinprocsMemoStats stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] ListPolicy policy() const noexcept { return policy_; }
  void clear();

 private:
  /// Content-determined scan outcome. Either the task is hopeless at any μ
  /// (len > D) or μ = `mu` with σ and the complete probe list [lb, mu].
  struct Entry {
    DagHash key;
    bool len_exceeds_deadline = false;
    int mu = 0;
    int scan_lb = 0;
    Time scan_cap = 0;
    TemplateSchedule sigma;
    std::vector<MinprocsProbeRecord> probes;
  };
  using Lru = std::list<Entry>;

  /// Replay an entry for the given m_r: credit logical counters, rebuild the
  /// provenance record, and return the scan's verdict.
  std::optional<MinprocsResult> replay(const Entry& entry, int max_processors,
                                       MinprocsProvenance* provenance) const;

  const std::size_t capacity_;
  const ListPolicy policy_;

  Lru lru_;  ///< front = most recently used
  std::unordered_map<DagHash, Lru::iterator> index_;
  MinprocsMemoStats stats_;
};

}  // namespace fedcons
