#include "fedcons/serve/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

#include "fedcons/core/io.h"
#include "fedcons/obs/prometheus.h"
#include "fedcons/obs/span_tracer.h"
#include "fedcons/online/admission_session.h"
#include "fedcons/util/check.h"
#include "fedcons/util/mini_json.h"

namespace fedcons {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// Machine-wide monotonic clock in microseconds. On Linux, steady_clock is
/// CLOCK_MONOTONIC, whose epoch is shared by every process on the box — so
/// a client can window the daemon's stats snapshots against its own steady
/// clock.
std::uint64_t monotonic_us_now() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Trace-clock ns interval -> whole microseconds (latency, stage echo).
std::uint64_t ns_delta_us(std::int64_t a, std::int64_t b) noexcept {
  return b > a ? static_cast<std::uint64_t>((b - a) / 1000) : 0;
}

/// Best-effort seq recovery for error responses to unparseable requests, so
/// a pipelining client can still match the error to a request: the last
/// "seq" member read before the payload broke (or in the whole payload,
/// when the request failed past the grammar), 0 when there is none or it
/// does not convert.
std::uint64_t guess_seq(std::string_view payload) noexcept {
  try {
    MiniJsonScanner scanner(payload);
    std::string_view seq;
    try {
      while (scanner.next()) {
        if (scanner.key() == "seq") seq = scanner.value();
      }
    } catch (const ParseError&) {
    }
    if (!seq.empty()) return mini_json_uint(seq);
  } catch (...) {
  }
  return 0;
}

std::vector<SharedTask> parse_embedded_tasks(const std::string& text) {
  const ParseResult parsed = try_parse_task_system(text);
  if (!parsed.ok) {
    throw ParseError(1, "embedded system: " + parsed.error);
  }
  std::vector<SharedTask> out;
  out.reserve(parsed.system.size());
  for (const DagTask& t : parsed.system) {
    out.push_back(std::make_shared<const DagTask>(t));
  }
  return out;
}

/// The diagnostic "stall" op occupies its connection's thread for a bounded
/// time only; a client cannot wedge it with a huge value.
constexpr std::uint64_t kMaxStallUs = 2'000'000;

/// Per-connection read buffer: the most one recv() delivers.
constexpr std::size_t kReadBufferBytes = 64 * 1024;

/// Responses encoded before a send(); every recv()'s last frame also ends
/// with one. With perfbench serve-low (two connections, 128 requests in
/// flight on each; 20-s runs on a 4-vCPU x86-64 VM) flushing every 32
/// responses gave 620k-1.01M verdicts/s. One send() per recv() gave
/// 343-429k, because client and daemon took turns on each 128-request
/// burst, and one send() per response 528k. Every 16 or 64 read the same
/// as 32 within noise.
constexpr std::size_t kFlushEvery = 32;

/// Bytes a connection thread takes from its client while one of its sends
/// waits for the client to read. A pipelining client may write a burst
/// larger than both socket buffers before it reads anything (perfbench's
/// open loop does, after any stall of about half a second); blocking in
/// send() then would deadlock against it. 4 MiB holds a burst of about
/// 60k admits.
constexpr std::size_t kMaxInboxBytes = 4 * 1024 * 1024;

}  // namespace

std::string ServerStats::to_json() const {
  return "{\"schema_version\": " + std::to_string(kStatsSchemaVersion) +
         ", \"uptime_us\": " + std::to_string(uptime_us) +
         ", \"snapshot_monotonic_us\": " +
         std::to_string(snapshot_monotonic_us) +
         ", \"connections_accepted\": " +
         std::to_string(connections_accepted) +
         ", \"requests_enqueued\": " + std::to_string(requests_enqueued) +
         ", \"requests_shed\": " + std::to_string(requests_shed) +
         ", \"requests_sampled\": " + std::to_string(requests_sampled) +
         ", \"parse_errors\": " + std::to_string(parse_errors) +
         ", \"framing_errors\": " + std::to_string(framing_errors) +
         ", \"batches\": " + std::to_string(batches) +
         ", \"queue_depth\": " + std::to_string(queue_depth) +
         ", \"queue_high_watermark\": " +
         std::to_string(queue_high_watermark) +
         ", \"reader_busy_us\": " + std::to_string(reader_busy_us) +
         ", \"handle_us\": " + std::to_string(handle_us) +
         ", \"write_us\": " + std::to_string(write_us) +
         ", \"dispatch_busy_us\": " + std::to_string(dispatch_busy_us) +
         ", \"batch_size\": " + obs::histogram_json(batch_size) +
         ", \"latency_us\": " + obs::histogram_json(latency_us) +
         ", \"admit_latency_us\": " + obs::histogram_json(admit_latency_us) +
         ", \"release_latency_us\": " +
         obs::histogram_json(release_latency_us) + "}";
}

std::string ServerStats::to_prometheus() const {
  obs::PrometheusWriter w;
  w.gauge("fedcons_serve_uptime_us", "Microseconds since the daemon started",
          uptime_us);
  w.counter("fedcons_serve_connections_total", "Connections accepted",
            connections_accepted);
  w.counter("fedcons_serve_requests_total",
            "Requests read and parsed", requests_enqueued);
  w.counter("fedcons_serve_requests_shed_total",
            "Always 0: no request is shed; backpressure is socket flow "
            "control",
            requests_shed);
  w.counter("fedcons_serve_requests_sampled_total",
            "Requests picked by trace sampling", requests_sampled);
  w.counter("fedcons_serve_parse_errors_total",
            "Recoverable request parse errors", parse_errors);
  w.counter("fedcons_serve_framing_errors_total",
            "Unrecoverable framing errors (connection closed)",
            framing_errors);
  w.counter("fedcons_serve_batches_total",
            "Socket reads that carried at least one request", batches);
  w.gauge("fedcons_serve_queue_depth",
          "Always 0: each connection's thread handles what it reads, so "
          "nothing is queued",
          queue_depth);
  w.gauge("fedcons_serve_queue_high_watermark",
          "Always 0: there is no request queue", queue_high_watermark);
  w.counter("fedcons_serve_stage_busy_us_total",
            "Busy microseconds by pipeline stage", reader_busy_us, "stage",
            "reader");
  w.counter("fedcons_serve_stage_busy_us_total",
            "Busy microseconds by pipeline stage", handle_us, "stage",
            "handle");
  w.counter("fedcons_serve_stage_busy_us_total",
            "Busy microseconds by pipeline stage", write_us, "stage",
            "write");
  w.counter("fedcons_serve_stage_busy_us_total",
            "Busy microseconds by pipeline stage", dispatch_busy_us, "stage",
            "dispatch");
  w.histogram("fedcons_serve_batch_size", "Requests per socket read",
              batch_size);
  w.histogram("fedcons_serve_request_latency_us",
              "Read-to-response-encoded latency by op class", latency_us,
              "op", "all");
  w.histogram("fedcons_serve_request_latency_us",
              "Read-to-response-encoded latency by op class",
              admit_latency_us, "op", "admit");
  w.histogram("fedcons_serve_request_latency_us",
              "Read-to-response-encoded latency by op class",
              release_latency_us, "op", "release");
  return w.str();
}

struct Server::Impl {
  // One accepted socket, the thread that serves it, and the admission state
  // opened over it (sessions and registered content, both addressed by
  // their index). Only that thread reads, handles and writes, so nothing
  // here except `done` is shared.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection() {
      if (fd >= 0) ::close(fd);
    }

    int fd;
    std::vector<std::unique_ptr<AdmissionSession>> sessions;
    /// Registered content, shared by every resident admitted from it; only
    /// this connection's thread reads it (admission_session.h).
    std::vector<std::vector<SharedTask>> contents;
    std::string out;         ///< encoded responses not yet sent
    std::size_t unsent = 0;  ///< responses in `out`
    std::string inbox;  ///< bytes read while a send waited; served next
    std::vector<std::uint64_t> sampled;  ///< trace ids of responses in `out`
    std::atomic<bool> done{false};       ///< the thread is exiting
    std::thread thread;
  };

  // Stage accounting for the requests of one recv(). Every stage is charged
  // from the end of the previous one (a running trace-clock mark), so the
  // busy counters add up to the thread's working time and the stage stamps
  // double as trace and echo stamps. Folded into the shared counters once
  // per recv().
  struct ReadTally {
    explicit ReadTally(std::int64_t now) : read_ns(now), mark_ns(now) {}

    /// Charge [mark, now) to `stage`; returns now.
    std::int64_t charge(std::uint64_t& stage) {
      const std::int64_t now = obs::trace_now_ns();
      stage += static_cast<std::uint64_t>(now - mark_ns);
      mark_ns = now;
      return now;
    }

    std::int64_t read_ns;  ///< recv() returned
    std::int64_t mark_ns;  ///< end of the last stage charged
    std::uint64_t requests = 0;
    std::uint64_t reader_ns = 0;  ///< frame decode + request parse
    std::uint64_t handle_ns = 0;  ///< handle + response encode
    std::uint64_t write_ns = 0;   ///< send()
    obs::Histogram latency;
    obs::Histogram admit_latency;
    obs::Histogram release_latency;
  };

  explicit Impl(const ServerConfig& config) : config(config) {}

  ~Impl() {
    request_shutdown();
    join_all();
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_pipe[0] >= 0) ::close(wake_pipe[0]);
    if (wake_pipe[1] >= 0) ::close(wake_pipe[1]);
    if (!config.unix_path.empty()) ::unlink(config.unix_path.c_str());
  }

  // ---- lifecycle ----------------------------------------------------------

  void start();
  void join_all() {
    if (acceptor.joinable()) acceptor.join();
  }

  void request_shutdown() noexcept {
    // Async-signal-safe: one atomic store and one write(2). The flag is
    // stored BEFORE the wake byte, so the acceptor (which drains the pipe
    // and then re-checks the flag) cannot miss the request.
    shutdown_flag.store(true, std::memory_order_release);
    if (wake_pipe[1] >= 0) {
      const char byte = 'x';
      [[maybe_unused]] const ssize_t n = ::write(wake_pipe[1], &byte, 1);
    }
  }

  // ---- connections --------------------------------------------------------

  void accept_loop();
  void serve_connection(Connection& conn);
  [[nodiscard]] bool serve_request(Connection& conn,
                                   const std::string& payload,
                                   ServeRequest& req, ServeResponse& resp,
                                   ReadTally& tally);
  [[nodiscard]] bool flush(Connection& conn, ReadTally& tally);
  [[nodiscard]] static bool send_all(Connection& conn);
  void record(const ReadTally& tally);
  void handle(Connection& conn, const ServeRequest& req, ServeResponse& resp);

  [[nodiscard]] ServerStats snapshot() const {
    ServerStats s;
    s.uptime_us = us_between(start_time, Clock::now());
    s.snapshot_monotonic_us = monotonic_us_now();
    s.connections_accepted =
        connections_accepted.load(std::memory_order_relaxed);
    s.requests_enqueued = requests_enqueued.load(std::memory_order_relaxed);
    s.requests_sampled = requests_sampled.load(std::memory_order_relaxed);
    s.parse_errors = parse_errors.load(std::memory_order_relaxed);
    s.framing_errors = framing_errors.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    s.reader_busy_us = reader_busy_ns.load(std::memory_order_relaxed) / 1000;
    s.handle_us = handle_ns.load(std::memory_order_relaxed) / 1000;
    s.write_us = write_ns.load(std::memory_order_relaxed) / 1000;
    s.dispatch_busy_us = s.reader_busy_us + s.handle_us + s.write_us;
    {
      std::lock_guard<std::mutex> lock(hist_mu);
      s.batch_size = batch_size_hist;
      s.latency_us = latency_hist;
      s.admit_latency_us = admit_latency_hist;
      s.release_latency_us = release_latency_hist;
    }
    return s;
  }

  ServerConfig config;
  int listen_fd = -1;
  int wake_pipe[2] = {-1, -1};
  int bound_port = 0;

  std::atomic<bool> shutdown_flag{false};

  /// Touched only by the acceptor thread.
  std::vector<std::unique_ptr<Connection>> conns;

  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> requests_enqueued{0};
  std::atomic<std::uint64_t> requests_sampled{0};
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> framing_errors{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> reader_busy_ns{0};
  std::atomic<std::uint64_t> handle_ns{0};
  std::atomic<std::uint64_t> write_ns{0};
  mutable std::mutex hist_mu;
  obs::Histogram batch_size_hist;
  obs::Histogram latency_hist;
  obs::Histogram admit_latency_hist;
  obs::Histogram release_latency_hist;

  Clock::time_point start_time{};
  std::atomic<std::uint64_t> next_trace_id{0};

  std::thread acceptor;
};

void Server::Impl::start() {
  FEDCONS_EXPECTS_MSG(::pipe(wake_pipe) == 0, "serve: pipe() failed");
  ::fcntl(wake_pipe[0], F_SETFL, O_NONBLOCK);
  if (!config.unix_path.empty()) {
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    FEDCONS_EXPECTS_MSG(listen_fd >= 0, "serve: socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    FEDCONS_EXPECTS_MSG(config.unix_path.size() < sizeof(addr.sun_path),
                        "serve: unix socket path too long");
    std::memcpy(addr.sun_path, config.unix_path.c_str(),
                config.unix_path.size() + 1);
    ::unlink(config.unix_path.c_str());
    FEDCONS_EXPECTS_MSG(
        ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) == 0,
        "serve: bind(" + config.unix_path + ") failed: " +
            std::strerror(errno));
  } else {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    FEDCONS_EXPECTS_MSG(listen_fd >= 0, "serve: socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config.tcp_port));
    FEDCONS_EXPECTS_MSG(
        ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) == 0,
        "serve: bind(127.0.0.1:" + std::to_string(config.tcp_port) +
            ") failed: " + std::strerror(errno));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    FEDCONS_EXPECTS_MSG(
        ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0,
        "serve: getsockname failed");
    bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  FEDCONS_EXPECTS_MSG(::listen(listen_fd, 128) == 0,
                      "serve: listen failed: " + std::string(strerror(errno)));
  start_time = Clock::now();
  acceptor = std::thread([this] { accept_loop(); });
}

void Server::Impl::accept_loop() {
  while (!shutdown_flag.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_pipe[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) {
      // Drain connection nudges so the level-triggered pipe goes quiet.
      char scratch[64];
      while (::read(wake_pipe[0], scratch, sizeof(scratch)) > 0) {
      }
    }
    if (shutdown_flag.load(std::memory_order_acquire)) break;
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        if (config.unix_path.empty()) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        conns.push_back(std::make_unique<Connection>(fd));
        Connection& conn = *conns.back();
        connections_accepted.fetch_add(1, std::memory_order_relaxed);
        conn.thread = std::thread([this, &conn] { serve_connection(conn); });
      }
    }
    // Reap connections whose thread exited, so a long-lived daemon does not
    // accumulate dead connection state.
    for (auto it = conns.begin(); it != conns.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Drain: no new connections. Shutting each socket down for reading makes
  // its recv() return 0 once the bytes already received are consumed, so
  // every thread answers what it read, sends it, and exits.
  for (const auto& conn : conns) ::shutdown(conn->fd, SHUT_RD);
  for (const auto& conn : conns) conn->thread.join();
  conns.clear();
}

void Server::Impl::serve_connection(Connection& conn) {
  FrameDecoder decoder(config.max_frame_bytes);
  char buf[kReadBufferBytes];
  // Reused for every request of the connection: parse, handle and encode
  // fill them in place, so their buffers are allocated once.
  std::string payload;
  ServeRequest req;
  ServeResponse resp;
  bool open = true;
  while (open) {
    // Bytes taken in while a send waited are answered before the next read,
    // so a client that shuts its side down still gets every answer.
    const char* data = conn.inbox.data();
    std::size_t size = conn.inbox.size();
    if (size == 0) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      data = buf;
      size = static_cast<std::size_t>(n);
    }
    ReadTally tally(obs::trace_now_ns());
    decoder.feed(data, size);
    conn.inbox.clear();
    try {
      while (open && decoder.next(payload)) {
        open = serve_request(conn, payload, req, resp, tally);
      }
    } catch (const ParseError& e) {
      // Framing error: the byte stream cannot be resynced.
      framing_errors.fetch_add(1, std::memory_order_relaxed);
      resp.clear();
      resp.status = ServeStatus::kError;
      resp.error = e.what();
      append_serve_response_frame(conn.out, resp);
      tally.charge(tally.reader_ns);
      open = false;
    }
    if (!flush(conn, tally)) open = false;
    record(tally);
  }
  conn.done.store(true, std::memory_order_release);
  // Nudge the acceptor so it reaps this connection promptly.
  const char byte = 'x';
  [[maybe_unused]] const ssize_t w = ::write(wake_pipe[1], &byte, 1);
}

bool Server::Impl::serve_request(Connection& conn, const std::string& payload,
                                 ServeRequest& req, ServeResponse& resp,
                                 ReadTally& tally) {
  try {
    parse_serve_request(payload, req);
  } catch (const ParseError& e) {
    // Recoverable: framing is still in sync.
    parse_errors.fetch_add(1, std::memory_order_relaxed);
    resp.clear();
    resp.status = ServeStatus::kError;
    resp.seq = guess_seq(payload);
    resp.error = e.what();
    append_serve_response_frame(conn.out, resp);
    tally.charge(tally.reader_ns);
    return ++conn.unsent < kFlushEvery || flush(conn, tally);
  }
  const std::int64_t parsed_ns = tally.charge(tally.reader_ns);
  ++tally.requests;
  // Trace ids are drawn only while spans can be recorded; the default path
  // pays this branch and no shared write.
  std::uint64_t trace_id = 0;
  bool sampled = false;
  if (config.trace_sample > 0 && obs::tracing_enabled()) {
    trace_id = next_trace_id.fetch_add(1, std::memory_order_relaxed);
    sampled = trace_id % static_cast<std::uint64_t>(config.trace_sample) == 0;
    if (sampled) requests_sampled.fetch_add(1, std::memory_order_relaxed);
  }

  handle(conn, req, resp);
  const std::int64_t handled_ns =
      sampled || req.echo_stages ? obs::trace_now_ns() : 0;
  if (req.echo_stages) {
    resp.has_stages = true;
    resp.stage_queue_us = ns_delta_us(tally.read_ns, parsed_ns);
    resp.stage_handle_us = ns_delta_us(parsed_ns, handled_ns);
  }
  append_serve_response_frame(conn.out, resp);
  const std::int64_t encoded_ns = tally.charge(tally.handle_ns);

  const std::uint64_t lat = ns_delta_us(tally.read_ns, encoded_ns);
  tally.latency.add(lat);
  if (req.op == ServeOp::kAdmit || req.op == ServeOp::kSwap) {
    tally.admit_latency.add(lat);
  } else if (req.op == ServeOp::kRelease) {
    tally.release_latency.add(lat);
  }
  if (sampled) {
    // One request's path as a span chain, all carrying the trace id —
    // Perfetto groups them into one story. flush() adds the write span.
    const auto id = static_cast<std::int64_t>(trace_id);
    obs::record_span_at("serve", "queue", tally.read_ns,
                        parsed_ns - tally.read_ns, "trace_id", id);
    obs::record_span_at("serve", "handle", parsed_ns, handled_ns - parsed_ns,
                        "trace_id", id);
    conn.sampled.push_back(trace_id);
  }
  return ++conn.unsent < kFlushEvery || flush(conn, tally);
}

bool Server::Impl::send_all(Connection& conn) {
  bool client_writing = true;
  for (std::size_t off = 0; off < conn.out.size();) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + off,
                             conn.out.size() - off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
    // The client is not reading. It may be blocked writing to us, so keep
    // taking its bytes while waiting to write, up to kMaxInboxBytes.
    const bool take = client_writing && conn.inbox.size() < kMaxInboxBytes;
    pollfd p{conn.fd, static_cast<short>(POLLOUT | (take ? POLLIN : 0)), 0};
    if (::poll(&p, 1, -1) < 0 && errno != EINTR) return false;
    if (take && (p.revents & POLLIN) != 0) {
      // Read straight into the inbox: no second read buffer on the stack of
      // every flush.
      const std::size_t held = conn.inbox.size();
      conn.inbox.resize(held + kReadBufferBytes);
      const ssize_t r = ::recv(conn.fd, conn.inbox.data() + held,
                               kReadBufferBytes, MSG_DONTWAIT);
      const int err = errno;
      conn.inbox.resize(held + static_cast<std::size_t>(r > 0 ? r : 0));
      if (r == 0 ||
          (r < 0 && err != EINTR && err != EAGAIN && err != EWOULDBLOCK)) {
        client_writing = false;  // end of input: only wait to write
      }
    }
  }
  return true;
}

bool Server::Impl::flush(Connection& conn, ReadTally& tally) {
  if (conn.out.empty()) return true;
  const std::int64_t start_ns = tally.mark_ns;
  const bool sent = send_all(conn);
  const std::int64_t end_ns = tally.charge(tally.write_ns);
  // Sampled requests share the send(): their write spans cover the same
  // interval, closing each trace chain.
  for (const std::uint64_t id : conn.sampled) {
    obs::record_span_at("serve", "write", start_ns, end_ns - start_ns,
                        "trace_id", static_cast<std::int64_t>(id));
  }
  conn.sampled.clear();
  conn.out.clear();
  conn.unsent = 0;
  return sent;
}

void Server::Impl::record(const ReadTally& tally) {
  if (tally.requests > 0) {
    requests_enqueued.fetch_add(tally.requests, std::memory_order_relaxed);
    batches.fetch_add(1, std::memory_order_relaxed);
  }
  reader_busy_ns.fetch_add(tally.reader_ns, std::memory_order_relaxed);
  handle_ns.fetch_add(tally.handle_ns, std::memory_order_relaxed);
  write_ns.fetch_add(tally.write_ns, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(hist_mu);
  if (tally.requests > 0) batch_size_hist.add(tally.requests);
  latency_hist.merge(tally.latency);
  admit_latency_hist.merge(tally.admit_latency);
  release_latency_hist.merge(tally.release_latency);
}

void Server::Impl::handle(Connection& conn, const ServeRequest& req,
                          ServeResponse& resp) {
  resp.clear();
  resp.seq = req.seq;
  std::vector<SharedTask> inline_tasks;  // an inline "system", parsed
  try {
    const auto find_session = [&](std::uint64_t id) -> AdmissionSession& {
      FEDCONS_EXPECTS_MSG(id < conn.sessions.size(),
                          "unknown session " + std::to_string(id));
      return *conn.sessions[static_cast<std::size_t>(id)];
    };
    // admit/swap task payload: registered content by handle (shared with
    // the residents admitted from it, never copied), or inline text.
    const auto resolve_tasks = [&]() -> const std::vector<SharedTask>& {
      if (req.has_content) {
        FEDCONS_EXPECTS_MSG(req.content < conn.contents.size(),
                            "unknown content handle " +
                                std::to_string(req.content));
        return conn.contents[static_cast<std::size_t>(req.content)];
      }
      inline_tasks = parse_embedded_tasks(req.system);
      return inline_tasks;
    };
    const auto fill_verdict = [&](const EventOutcome& outcome,
                                  const AdmissionSession& session) {
      resp.has_verdict = true;
      resp.applied = outcome.applied;
      resp.schedulable = outcome.schedulable;
      resp.reject = to_string(outcome.reject_reason);
      resp.task_ids.assign(outcome.admitted_ids.begin(),
                           outcome.admitted_ids.end());
      resp.residents = session.num_residents();
    };

    switch (req.op) {
      case ServeOp::kOpen: {
        AdmissionSession::Config cfg;
        cfg.processors = req.m;
        auto session = std::make_unique<AdmissionSession>(cfg);
        resp.has_session = true;
        resp.session = conn.sessions.size();
        conn.sessions.push_back(std::move(session));
        break;
      }
      case ServeOp::kRegister: {
        find_session(req.session);  // validate the handle early
        std::vector<SharedTask> tasks = parse_embedded_tasks(req.system);
        resp.has_content = true;
        resp.content = conn.contents.size();
        conn.contents.push_back(std::move(tasks));
        break;
      }
      case ServeOp::kAdmit: {
        AdmissionSession& session = find_session(req.session);
        const std::vector<SharedTask>& tasks = resolve_tasks();
        FEDCONS_EXPECTS_MSG(tasks.size() == 1,
                            "admit needs exactly one task, got " +
                                std::to_string(tasks.size()));
        fill_verdict(session.admit(tasks[0]), session);
        break;
      }
      case ServeOp::kRelease: {
        AdmissionSession& session = find_session(req.session);
        fill_verdict(session.release(req.release_ids.at(0)), session);
        break;
      }
      case ServeOp::kSwap: {
        AdmissionSession& session = find_session(req.session);
        AdmissionSession::SwapBatch swap;
        swap.release_ids = req.release_ids;
        swap.admits = resolve_tasks();
        fill_verdict(session.swap(swap), session);
        break;
      }
      case ServeOp::kQuery: {
        AdmissionSession& session = find_session(req.session);
        const SessionVerdict v = session.verdict();
        resp.has_verdict = true;
        resp.applied = false;
        resp.schedulable = v.success;
        resp.reject = to_string(v.failure);
        resp.residents = session.num_residents();
        break;
      }
      case ServeOp::kStats: {
        if (req.prometheus) {
          resp.extra = ", \"schema_version\": " +
                       std::to_string(kStatsSchemaVersion) +
                       ", \"prometheus\": \"" +
                       json_escape(snapshot().to_prometheus()) + "\"";
          break;
        }
        // Splice the stats body into the response object so histograms sit
        // at nesting depth 1 (the mini_json dialect's limit).
        const std::string body = snapshot().to_json();
        resp.extra = ", " + body.substr(1, body.size() - 2);
        break;
      }
      case ServeOp::kPing:
        break;
      case ServeOp::kStall:
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min(req.stall_us, kMaxStallUs)));
        break;
      case ServeOp::kShutdown:
        // The drain lets this thread send the answer before it exits.
        request_shutdown();
        break;
    }
  } catch (const std::exception& e) {
    resp.clear();
    resp.status = ServeStatus::kError;
    resp.seq = req.seq;
    // A failed precondition answers without its source location, so the
    // bytes do not depend on where the daemon was built.
    const auto* violation = dynamic_cast<const ContractViolation*>(&e);
    resp.error = violation != nullptr ? violation->message() : e.what();
  }
}

Server::Server(const ServerConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

Server::~Server() = default;

void Server::start() { impl_->start(); }

int Server::port() const noexcept { return impl_->bound_port; }

void Server::request_shutdown() noexcept { impl_->request_shutdown(); }

void Server::wait() { impl_->join_all(); }

bool Server::shutdown_requested() const noexcept {
  return impl_->shutdown_flag.load(std::memory_order_acquire);
}

ServerStats Server::stats_snapshot() const { return impl_->snapshot(); }

}  // namespace serve
}  // namespace fedcons
