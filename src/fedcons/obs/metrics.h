// Batch-level metrics: histograms aggregated deterministically in trial order.
//
// Where the span tracer shows one run's timeline, the metrics registry
// summarizes distributions across a whole batch: per-trial wall-clock
// latency, the μ chosen per high-density task, and the bins touched per
// partition placement. Collection mirrors the perf-counter discipline —
// thread-local raw-value collectors, one trial at a time per worker, each
// trial's values snapshotted into its result slot and merged in trial-index
// order — so the logical histograms (μ, bins) are bit-identical for any
// thread count. Latency is physical wall-clock and varies run to run; it is
// therefore only emitted when metrics were explicitly requested
// (e.g. bench_e3 --metrics), never in default reports.
//
// Disabled-path contract: each observation point costs one relaxed atomic
// load and a branch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "fedcons/util/table.h"

namespace fedcons {
namespace obs {

/// Log2-bucketed histogram over non-negative integer samples. Bucket b holds
/// values in [2^(b-1), 2^b) (bucket 0 holds {0}); percentiles are reported
/// as the upper bound of the bucket containing the rank — a ≤2× estimate,
/// which is the right fidelity for latency-style distributions.
class Histogram {
 public:
  void add(std::uint64_t v) noexcept;
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// Upper bound of the bucket holding the p-th percentile sample (p in
  /// [0, 100]); 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept;

  [[nodiscard]] const std::array<std::uint64_t, 65>& buckets() const noexcept {
    return buckets_;
  }
  [[nodiscard]] bool operator==(const Histogram&) const noexcept = default;

  /// Interval view between two cumulative snapshots: (*this) must have been
  /// produced by adding samples to `earlier` (same histogram, later in time).
  /// Bucket counts, count, and sum are exact — the delta's buckets equal the
  /// histogram of exactly the samples added in between, which is what makes
  /// monitoring-loop rate/percentile math from periodic snapshots sound.
  /// min/max cannot be recovered from cumulative state, so they are
  /// bucket-bound estimates: min is the lower bound of the lowest non-empty
  /// delta bucket, max the upper bound of the highest (clamped to this
  /// snapshot's max). If `earlier` is not a prefix (e.g. the counter source
  /// restarted), the full later snapshot is returned instead of garbage.
  [[nodiscard]] Histogram delta_since(const Histogram& earlier) const noexcept;

  /// Rebuild a histogram from serialized state (the stats-scrape inverse:
  /// fedcons_top reconstructs server histograms from the JSON "buckets"
  /// counts to run delta_since/percentile client-side).
  [[nodiscard]] static Histogram from_state(
      const std::array<std::uint64_t, 65>& buckets, std::uint64_t count,
      std::uint64_t sum, std::uint64_t min, std::uint64_t max) noexcept;

 private:
  std::array<std::uint64_t, 65> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// The batch aggregate: one histogram per tracked dimension, plus the
/// online-layer MINPROCS memo-cache counters (plain counts — a hit/miss split
/// has no distribution to bucket).
struct MetricsRegistry {
  Histogram trial_latency_us;       ///< wall-clock per trial (physical)
  Histogram minprocs_mu;            ///< chosen μ per admitted MINPROCS scan
  Histogram partition_bins_touched; ///< bins probed per placement attempt
  std::uint64_t memo_hits = 0;      ///< MINPROCS memo lookups served cached
  std::uint64_t memo_misses = 0;    ///< MINPROCS memo lookups that ran a scan

  void merge(const MetricsRegistry& other) noexcept {
    trial_latency_us.merge(other.trial_latency_us);
    minprocs_mu.merge(other.minprocs_mu);
    partition_bins_touched.merge(other.partition_bins_touched);
    memo_hits += other.memo_hits;
    memo_misses += other.memo_misses;
  }
  [[nodiscard]] bool empty() const noexcept {
    return trial_latency_us.count() == 0 && minprocs_mu.count() == 0 &&
           partition_bins_touched.count() == 0 && memo_hits == 0 &&
           memo_misses == 0;
  }

  /// Human table: one row per metric (count, mean, p50/p90/p99, min, max).
  [[nodiscard]] Table to_table() const;
  /// Deterministic JSON object (fixed key order) for --json reports.
  [[nodiscard]] std::string to_json() const;
};

/// One histogram as a flat JSON object with fixed key order — the snapshot
/// form the serve layer's stats op and Metrics::to_json both emit.
/// Includes the tail quantiles a latency distribution is judged on
/// (p50/p90/p99/p999; log2 buckets make each a ≤2× upper-bound estimate)
/// plus the raw per-bucket counts as one space-joined string ("buckets",
/// truncated after the last non-empty bucket) so scrape consumers can
/// reconstruct the histogram with Histogram::from_state and difference
/// consecutive snapshots exactly.
[[nodiscard]] std::string histogram_json(const Histogram& h);

/// Inverse of histogram_json's "buckets" member: space-joined counts back
/// into the fixed 65-bucket array (missing trailing buckets are zero).
/// Throws ParseError on garbage tokens or too many buckets.
[[nodiscard]] std::array<std::uint64_t, 65> parse_histogram_buckets(
    const std::string& raw);

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}

/// The single branch every disabled observation pays.
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool enabled);

/// Raw per-thread sample buffers. A batch driver clears the collector before
/// a trial and snapshots it after (one trial at a time per worker thread —
/// the BatchRunner contract — so the delta is exactly that trial's samples).
struct MetricsCollector {
  std::vector<std::uint32_t> minprocs_mu;
  std::vector<std::uint32_t> partition_bins_touched;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  void clear() noexcept {
    minprocs_mu.clear();
    partition_bins_touched.clear();
    memo_hits = 0;
    memo_misses = 0;
  }
};

[[nodiscard]] MetricsCollector& metrics_collector() noexcept;

/// Observation points, called from instrumented algorithm code.
inline void observe_minprocs_mu(int mu) {
  if (metrics_enabled()) {
    metrics_collector().minprocs_mu.push_back(static_cast<std::uint32_t>(mu));
  }
}
inline void observe_partition_bins_touched(int bins) {
  if (metrics_enabled()) {
    metrics_collector().partition_bins_touched.push_back(
        static_cast<std::uint32_t>(bins));
  }
}
inline void observe_memo_lookup(bool hit) {
  if (metrics_enabled()) {
    MetricsCollector& col = metrics_collector();
    if (hit) {
      ++col.memo_hits;
    } else {
      ++col.memo_misses;
    }
  }
}

}  // namespace obs
}  // namespace fedcons
