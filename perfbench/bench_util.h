// Shared pieces of the perfbench driver: raw-sample percentiles, the metric
// report, the span recorder behind the traced run, and small OS helpers.
//
// Everything here belongs to the benchmark, not to the library: spans are
// recorded around calls into fedcons' public functions, never inside them.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Raw samples. Percentiles come from the sorted values by nearest rank, so
/// they carry no bucket error; each is reported with the sample count and
/// the number of samples strictly above it.
class Samples {
 public:
  struct Percentile {
    double value = 0.0;
    std::size_t count = 0;
    std::size_t beyond = 0;
  };

  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  /// Samples strictly greater than v.
  [[nodiscard]] std::size_t count_above(double v);
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// Nearest-rank percentile, p in (0, 100]. Zero when empty.
  [[nodiscard]] Percentile percentile(double p);
  /// The smallest sample (zero when empty).
  [[nodiscard]] double min() const noexcept;

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// Samples split into fixed windows of wall time. A shared host slows the
/// program in stretches, and interference only ever makes a window slower,
/// so figures are read from the quieter windows: a rate is the fastest
/// window's, a latency percentile the 10th percentile of its per-window
/// values. Only complete windows are kept.
class WindowedSamples {
 public:
  WindowedSamples() = default;
  /// Windows of `window_s` from `origin`; samples at or after the end of the
  /// last complete window before `end` are dropped.
  WindowedSamples(Clock::time_point origin, Clock::time_point end,
                  double window_s);

  void add(Clock::time_point at, double v);
  /// Pools another instance with the same geometry window by window.
  void append(const WindowedSamples& other);
  [[nodiscard]] std::size_t count() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// The 10th percentile over windows of each window's p-th percentile.
  /// Windows with fewer than ten samples beyond the rank are skipped (all
  /// pooled when none qualifies); count and beyond refer to the pooled
  /// samples.
  [[nodiscard]] Samples::Percentile percentile(double p);
  /// Samples per second in the fullest window.
  [[nodiscard]] double rate_per_s() const;
  /// "fastest of N windows: r1 r2 ..." — the per-window rates, in time order.
  [[nodiscard]] std::string rates_detail() const;

 private:
  Clock::time_point origin_;
  double window_s_ = 1.0;
  std::vector<Samples> windows_;
};

/// One named measurement with its unit; `detail` carries sample counts.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;
};

/// Everything one workload run produced: metrics, the environment stamp,
/// verdict accounting, and warnings (e.g. "driver-bound").
struct Report {
  std::string workload;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> env;
  std::vector<std::string> warnings;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;

  void add(std::string name, double value, std::string unit,
           std::string detail = {});
  /// Adds `<name>` with the percentile value and its count/beyond detail.
  void add_percentile(std::string name, const Samples::Percentile& p,
                      std::string unit);
  void stamp(std::string key, std::string value);

  /// Human-readable lines ("name = value unit  [detail]").
  void print(std::ostream& out) const;
  /// One JSON object: workload, correct, attempted, failed, metrics, env.
  [[nodiscard]] std::string to_json() const;
};

/// One span of the traced run: name, start, end, parent span, and the id of
/// the request (or system) it belongs to.
struct Span {
  const char* name = "";
  const char* category = "";
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::uint64_t request_id = 0;
  int tid = 0;
};

/// Per-thread span buffer: spans are kept in memory and written once, when
/// the run ends. Span ids are unique across recorders (tid in the top bits).
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t record(const char* name, const char* category,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t request_id, std::uint64_t parent_id = 0);
  /// Reserves an id for a parent span recorded after its children.
  [[nodiscard]] std::uint64_t next_id() noexcept;
  void record_with_id(std::uint64_t id, const char* name,
                      const char* category, Clock::time_point start,
                      Clock::time_point end, std::uint64_t request_id,
                      std::uint64_t parent_id = 0);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  int tid_;
  std::uint64_t counter_ = 0;
  std::vector<Span> spans_;
};

/// Writes Chrome trace-event JSON (loadable in Perfetto): one complete ("X")
/// event per span, timestamps relative to the earliest span, ids in args.
void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders);

/// FNV-1a over bytes: the verdict and input digests.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) noexcept;
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof(v)); }
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// VmHWM of a process from /proc/<pid>/status, in MB (0 when unreadable).
[[nodiscard]] double vm_hwm_mb(int pid);
/// CPU time of the calling thread, in seconds.
[[nodiscard]] double thread_cpu_s();
/// "0-1" style rendering of an affinity mask.
[[nodiscard]] std::string mask_string(const cpu_set_t& mask);

}  // namespace perfbench
