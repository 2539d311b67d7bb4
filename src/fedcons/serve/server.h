// fedcons_serve daemon core: sockets in front, AdmissionSessions behind.
//
// Thread shape (fixed per connection, independent of load):
//
//   acceptor ──► one thread per connection: recv ─► decode ─► parse ─►
//                handle ─► encode ─► send
//
// Each connection's thread does all the work for what it reads, in read
// order: it decodes the frames, parses each request, runs it against the
// connection's own sessions and content, and encodes the response into one
// outbound buffer that it send()s after every kFlushEvery (32) responses
// and after the last frame of each recv(). Sessions are connection-scoped,
// so no request ever waits for another connection's work, and two
// connections run on two CPUs. Per-session FIFO order is read order. Only
// the owning thread touches a connection's socket, sessions and content,
// so none of them is locked; the threads share only the stats counters and
// histograms and the trace-id counter.
//
// Backpressure is socket flow control. A client that stops reading (or
// sends "stall") blocks its own thread and nobody else's. While a send()
// waits for the client to read, the thread keeps reading the client's
// bytes into an inbox of at most 4 MiB (kMaxInboxBytes) and answers them
// after the send: a client that pipelines a burst larger than both socket
// buffers before it reads would otherwise block in send() against a
// daemon blocked in send(). Per-connection memory is one 64 KiB read
// buffer, the inbox, the frame decoder (the inbox plus at most
// max_frame_bytes of partial frame) and at most kFlushEvery encoded
// responses.
//
// Shutdown: request_shutdown() is async-signal-safe (atomic flag + one
// write() to a wake pipe). The acceptor then stops accepting, shuts every
// connection down for reading and joins the connection threads; each one
// answers everything it has read, sends it, and exits. Nothing read is
// dropped. A client that never reads can hold a thread in send() and so
// hold up the drain.
//
// Observability plane (all of it strictly observational — verdicts,
// PerfCounters, and response bytes are bit-identical with every knob on or
// off unless a request explicitly asks for the stage echo):
//
//  * Stage accounting: each thread stamps the trace clock once per recv()
//    and once at the end of every stage (parse, handle + encode, send), so
//    the busy counters partition its working time exactly and latency_us
//    runs from the read to the encoded response.
//  * Request-scoped tracing: when span tracing is enabled and
//    trace_sample = N > 0, every parsed request draws a trace id and every
//    Nth is SAMPLED — its read/handle/send stamps are emitted as "serve"-
//    category spans (queue -> handle -> write) all carrying the trace id as
//    a span arg, so one request's wall-clock path reads as one chain in
//    Perfetto. With tracing off a request pays one branch.
//  * Stage echo: a request carrying "stages": 1 gets its queue and handle
//    stage times echoed back as stage_*_us response fields (opt-in per
//    request, so default response bytes never change).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "fedcons/obs/metrics.h"
#include "fedcons/serve/protocol.h"

namespace fedcons {
namespace serve {

struct ServerConfig {
  /// Exactly one listener: AF_UNIX when unix_path is non-empty, else TCP on
  /// 127.0.0.1:tcp_port (0 = kernel-assigned; read it back via port()).
  std::string unix_path;
  int tcp_port = 0;

  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Trace sampling period: with span tracing enabled, every Nth request
  /// (by trace id) emits the queue/handle/write span chain. 0 turns
  /// request-scoped spans off even when tracing is otherwise on.
  int trace_sample = 0;
};

/// Version of the stats / prometheus response schemas; bumped whenever a
/// field is renamed or removed (additions keep the version).
constexpr int kStatsSchemaVersion = 1;

/// Counters + distributions scraped by the "stats" op and by tests.
struct ServerStats {
  std::uint64_t uptime_us = 0;  ///< daemon start -> this snapshot
  /// Machine-wide monotonic clock (CLOCK_MONOTONIC) at snapshot time, in
  /// microseconds — comparable across processes on one box, so a client
  /// can difference two snapshots over its own measurement interval.
  std::uint64_t snapshot_monotonic_us = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_enqueued = 0;  ///< requests read and parsed
  std::uint64_t requests_shed = 0;      ///< always 0 (nothing is shed)
  std::uint64_t requests_sampled = 0;   ///< requests picked by trace_sample
  std::uint64_t parse_errors = 0;       ///< recoverable bad requests
  std::uint64_t framing_errors = 0;     ///< unrecoverable; connection closed
  std::uint64_t batches = 0;            ///< recv() calls carrying a request
  std::uint64_t queue_depth = 0;           ///< always 0 (there is no queue)
  std::uint64_t queue_high_watermark = 0;  ///< always 0 (there is no queue)
  /// CPU accounting (busy time, not wall time), summed over the connection
  /// threads: reader_busy_us covers frame decode + request parse; handle_us
  /// session events + response encoding; write_us every send();
  /// dispatch_busy_us is their sum.
  std::uint64_t reader_busy_us = 0;
  std::uint64_t handle_us = 0;
  std::uint64_t write_us = 0;
  std::uint64_t dispatch_busy_us = 0;
  obs::Histogram batch_size;  ///< requests per recv()
  obs::Histogram latency_us;  ///< read -> response encoded, per request
  obs::Histogram admit_latency_us;    ///< latency_us restricted to admit/swap
  obs::Histogram release_latency_us;  ///< latency_us restricted to release

  /// Deterministic key order; histograms via obs::histogram_json. Carries
  /// "schema_version" kStatsSchemaVersion (see the protocol.h stats grammar).
  [[nodiscard]] std::string to_json() const;

  /// The same snapshot in Prometheus text exposition 0.0.4: counters as
  /// *_total, gauges for instantaneous values, histograms with cumulative
  /// le buckets (le = 2^b - 1 per obs::Histogram bucket geometry). Latency
  /// histograms share one family, fedcons_serve_request_latency_us, labeled
  /// op="all"/"admit"/"release". Deterministic output for a given snapshot.
  [[nodiscard]] std::string to_prometheus() const;
};

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the acceptor. Throws
  /// ContractViolation on socket errors. On return the listener accepts.
  void start();

  /// Bound TCP port (after start(); 0 for unix-socket servers).
  [[nodiscard]] int port() const noexcept;

  /// Async-signal-safe shutdown trigger (also reachable via the protocol's
  /// "shutdown" op). Idempotent.
  void request_shutdown() noexcept;

  /// Block until the drain completes (everything read is answered).
  void wait();

  [[nodiscard]] bool shutdown_requested() const noexcept;

  /// Consistent snapshot of the counters (also what the "stats" op emits).
  [[nodiscard]] ServerStats stats_snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace fedcons
