// Thread-safe span tracing with Chrome trace-event JSON export.
//
// The tracer answers the wall-clock question the deterministic perf counters
// cannot: where do the BatchRunner's threads actually spend time? Each
// FEDCONS_SPAN(cat, name) expands to an RAII guard that, when tracing is
// enabled, records a complete ("ph":"X") event — start timestamp and duration
// from the steady clock — into the calling thread's buffer. Buffers are
// per-thread (one mutex each, never contended on the hot path by other
// threads except during collection), registered in a global list so
// write_chrome_trace() can merge them into one JSON document loadable in
// Perfetto / chrome://tracing.
//
// Disabled-path contract (the default): a span costs exactly one relaxed
// atomic load and one branch — no allocation, no clock read, no lock. The
// library is built with tracing compiled in; binaries opt in per run
// (e.g. fedcons_cli --trace-out=t.json). Verdicts, counters, and report
// bytes are independent of the tracing flag by construction: the tracer
// observes, it never steers.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace fedcons {
namespace obs {

/// One completed span. `name`, `cat`, and `arg_key` must be pointers to
/// string literals (or other storage outliving the tracer) — spans never
/// copy strings, which keeps recording allocation-free after buffer growth.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t ts_ns = 0;   ///< start, relative to the trace epoch
  std::int64_t dur_ns = 0;  ///< duration (>= 0)
  std::uint32_t tid = 0;    ///< tracer-assigned small thread id
  const char* arg_key = nullptr;  ///< optional numeric annotation key
  std::int64_t arg_val = 0;       ///< meaningful iff arg_key != nullptr
};

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
void record_span(const char* cat, const char* name, std::int64_t ts_ns,
                 std::int64_t dur_ns, const char* arg_key,
                 std::int64_t arg_val);
[[nodiscard]] std::int64_t now_ns();
}  // namespace detail

/// The single branch every disabled span pays.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Toggle recording. Spans already open keep recording to completion;
/// enabling mid-span records nothing for that span (the guard latched the
/// disabled state at construction).
void set_tracing_enabled(bool enabled);

/// Current time on the trace clock (nanoseconds since the trace epoch) —
/// for call sites that stamp stage timestamps themselves and emit spans
/// after the fact via record_span_at (the serve pipeline stamps a request
/// at its socket read and emits its write span after the send()).
[[nodiscard]] inline std::int64_t trace_now_ns() { return detail::now_ns(); }

/// Record one completed span from explicit trace-clock timestamps, into the
/// CALLING thread's buffer. Same literal-lifetime contract as SpanGuard for
/// cat/name/arg_key; a no-op branch when tracing is disabled.
inline void record_span_at(const char* cat, const char* name,
                           std::int64_t ts_ns, std::int64_t dur_ns,
                           const char* arg_key = nullptr,
                           std::int64_t arg_val = 0) {
  if (tracing_enabled()) {
    detail::record_span(cat, name, ts_ns, dur_ns, arg_key, arg_val);
  }
}

/// Drop all recorded events (buffers stay registered; thread ids persist).
void reset_trace();

/// Snapshot every thread's events, ordered by (tid, ts_ns) — a deterministic
/// presentation order for a given set of recorded events.
[[nodiscard]] std::vector<TraceEvent> collect_trace_events();

/// Write the Chrome trace-event format (JSON object form,
/// {"traceEvents": [...]}, timestamps in microseconds) for everything
/// recorded so far. Loadable in Perfetto and chrome://tracing.
void write_chrome_trace(std::ostream& os);

/// RAII span. Constructed disabled → destructor is a no-op branch.
class SpanGuard {
 public:
  SpanGuard(const char* cat, const char* name, const char* arg_key = nullptr,
            std::int64_t arg_val = 0) noexcept
      : cat_(cat), name_(name), arg_key_(arg_key), arg_val_(arg_val) {
    if (tracing_enabled()) {
      start_ns_ = detail::now_ns();
      active_ = true;
    }
  }
  ~SpanGuard() {
    if (active_) {
      const std::int64_t end = detail::now_ns();
      detail::record_span(cat_, name_, start_ns_, end - start_ns_, arg_key_,
                          arg_val_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* cat_;
  const char* name_;
  const char* arg_key_;
  std::int64_t arg_val_;
  std::int64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace obs
}  // namespace fedcons

#define FEDCONS_SPAN_CONCAT_(a, b) a##b
#define FEDCONS_SPAN_CONCAT(a, b) FEDCONS_SPAN_CONCAT_(a, b)

/// Trace the enclosing scope as one span: FEDCONS_SPAN("minprocs", "scan").
#define FEDCONS_SPAN(cat, name)                            \
  ::fedcons::obs::SpanGuard FEDCONS_SPAN_CONCAT(           \
      fedcons_span_, __LINE__)(cat, name)

/// Span with one numeric annotation rendered into the event's "args":
/// FEDCONS_SPAN_V("engine", "trial", "index", i).
#define FEDCONS_SPAN_V(cat, name, key, val)                \
  ::fedcons::obs::SpanGuard FEDCONS_SPAN_CONCAT(           \
      fedcons_span_, __LINE__)(cat, name, key,             \
                               static_cast<std::int64_t>(val))
