// serve-low: fedcons_serve as a user sees it.
//
// The driver spawns the daemon on its own CPUs, opens 8 sessions over two
// connections (one client thread each), registers a pool of single-vertex
// low-density tasks, and churns admits (by content handle) and releases at
// 4 residents per session through
//
//   closed loop — each connection keeps `pipeline` requests in flight; the
//                 completed verdicts per second are the daemon's capacity;
//   open loop   — requests are due on a fixed absolute schedule regardless
//                 of completions; latency runs from the due time, so a stall
//                 also charges the requests queued behind it.
//
// Every request and its response are logged per session. After the run the
// log is replayed through in-process AdmissionSessions and every verdict
// must match the daemon's. The traced run additionally asks for the stage
// echo, differences the daemon's stats counters over the closed window, and
// times the public calls of each layer on the workload's own bytes.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "fedcons/core/io.h"
#include "fedcons/online/admission_session.h"
#include "fedcons/serve/client.h"
#include "fedcons/util/mini_json.h"
#include "fedcons/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fedcons;
using serve::ServeOp;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeStatus;

// The traffic shape. The open-loop rate is a fixed absolute number, about a
// fifth of the closed-loop capacity measured on a 4-vCPU x86-64 VM, so a
// faster daemon shows up as lower latency at the same load, not as a moved
// target. At half the capacity, host stalls on a shared VM queue up enough
// work to dominate the latency figures.
constexpr int kProcessors = 8;             ///< m of every session
constexpr int kConnections = 2;
constexpr int kSessionsPerConnection = 4;  ///< 2 connections -> 8 sessions
constexpr std::size_t kResidents = 4;      ///< steady-state residents/session
constexpr int kPipeline = 128;             ///< closed loop: in flight per conn
constexpr double kOpenRate = 25000.0;      ///< open loop: requests/s, both conns
constexpr int kPoolSize = 10;              ///< registered tasks

constexpr int kSetupRepetitions = 9;
// The closed loop gets most of the run: its rate is the fastest window's,
// and the host's fast state, which comes and goes every few seconds, has
// to show up in it at least once.
constexpr double kClosedShare = 0.65;  ///< of the run; the open loop gets the rest
constexpr double kWarmupShare = 0.05;  ///< of a closed phase, not measured
constexpr double kWindowS = 0.25;      ///< reporting window
constexpr double kFailedLatencyUs = 1e9;  ///< charged to a failed request
constexpr std::size_t kCaptureCap = 20000;  ///< frames kept for layer timing
constexpr std::uint64_t kSpanEvery = 64;    ///< traced requests: 1 in N

// ---------------------------------------------------------------- inputs --

struct WorkTask {
  DagTask task;
  std::string text;  ///< one-task core/io document, as registered
};

/// The fedcons_loadgen acceptance shape: single-vertex low-density tasks.
/// Every pool fits on m = 8 at 4 residents, so no admit is ever rejected.
std::vector<WorkTask> make_pool(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EB1);
  std::vector<WorkTask> pool;
  for (int v = 0; v < kPoolSize; ++v) {
    Dag g;
    g.add_vertex(rng.uniform_int(8, 14));
    const Time d = rng.uniform_int(80, 99);
    std::string name = "l";
    name += std::to_string(v);
    DagTask task(std::move(g), d, d + rng.uniform_int(5, 20), std::move(name));
    std::string text = serialize_task_system(TaskSystem({task}));
    pool.push_back(WorkTask{std::move(task), std::move(text)});
  }
  return pool;
}

// ---------------------------------------------------------------- daemon --

/// A spawned fedcons_serve. The destructor stops and reaps it on every path.
class DaemonProcess {
 public:
  DaemonProcess(const std::vector<std::string>& argv, const cpu_set_t* mask) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (mask != nullptr) ::sched_setaffinity(0, sizeof(*mask), mask);
      ::dup2(fds[1], STDOUT_FILENO);
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // Readiness: the daemon prints one "listening" line once it accepts.
    std::string seen;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (seen.find('\n') == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      pollfd p{out_fd_, POLLIN, 0};
      if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        stop();
        throw std::runtime_error("fedcons_serve did not become ready");
      }
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        stop();
        throw std::runtime_error("fedcons_serve exited before ready");
      }
      seen.append(buf, static_cast<std::size_t>(n));
    }
    if (seen.find("listening") == std::string::npos) {
      stop();
      throw std::runtime_error("unexpected fedcons_serve banner: " + seen);
    }
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { stop(); }

  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// Reaps the daemon after a protocol shutdown; kills it after `timeout`.
  /// Returns true on a clean exit 0.
  bool wait_exit(std::chrono::milliseconds timeout) {
    const auto deadline = Clock::now() + timeout;
    while (pid_ > 0) {
      drain_stdout();
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        close_stdout();
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      if (Clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop();
    return false;
  }

 private:
  void drain_stdout() {
    if (out_fd_ < 0) return;
    char buf[4096];
    pollfd p{out_fd_, POLLIN, 0};
    while (::poll(&p, 1, 0) > 0 && (p.revents & POLLIN) != 0) {
      if (::read(out_fd_, buf, sizeof(buf)) <= 0) break;
    }
  }
  void close_stdout() {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    close_stdout();
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// ------------------------------------------------------------- event log --

enum EventStatus : std::uint8_t { kPending, kOk, kError, kRetry };

/// The verdicts the daemon reports, compactly: "accepted" and the two
/// failure phases; anything else cannot match a replay.
std::uint8_t reject_code(const std::string& reject) {
  for (const FedconsFailure f :
       {FedconsFailure::kNone, FedconsFailure::kHighDensityPhase,
        FedconsFailure::kPartitionPhase}) {
    if (reject == to_string(f)) return static_cast<std::uint8_t>(f);
  }
  return 255;
}

/// One request and the daemon's answer, in send order per connection.
/// 32 bytes: a 40 s serve-low run logs about four million of these.
struct Event {
  std::uint64_t seq = 0;
  std::int32_t release_id = -1;
  std::int32_t task_id = -1;  ///< first id the daemon assigned, -1 none
  std::uint32_t task = 0;     ///< index into the task pool
  std::uint32_t residents = 0;
  std::uint16_t session = 0;
  ServeOp op = ServeOp::kQuery;
  EventStatus status = kPending;
  std::uint8_t reject = 0;
  std::uint8_t task_ids = 0;  ///< number of ids assigned
  bool applied = false;
  bool schedulable = false;
};

/// What one connection saw during one phase.
struct PhaseStats {
  WindowedSamples verdicts;    ///< closed: ok verdicts, by completion time
  WindowedSamples latency_us;  ///< open: due time -> response, by due time
  Samples sent_latency_us;     ///< actual send -> response
  Samples lag_us;              ///< open: actual send - due time
  Samples queue_us, batch_us, handle_us;  ///< stage echo
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

// ------------------------------------------------------------ connection --

/// One client connection with its sessions, driven by one thread.
class Connection {
 public:
  Connection(const std::vector<WorkTask>& pool, int index)
      : pool_(pool), index_(index) {}

  /// Connects, opens the sessions and registers the content pool (handles
  /// then equal pool indices).
  void setup(const std::string& socket) {
    client_.emplace(serve::ServeClient::connect_unix(socket));
    timeval tv{20, 0};  // a hung daemon fails the run instead of hanging it
    ::setsockopt(client_->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sessions_.assign(static_cast<std::size_t>(kSessionsPerConnection),
                     SessionState{});
    for (SessionState& s : sessions_) {
      ServeRequest open;
      open.op = ServeOp::kOpen;
      open.seq = seq_++;
      open.m = kProcessors;
      const ServeResponse r = client_->call(open);
      if (r.status != ServeStatus::kOk || !r.has_session) {
        throw std::runtime_error("open failed: " + r.error);
      }
      s.handle = r.session;
    }
    for (std::size_t t = 0; t < pool_.size(); ++t) {
      ServeRequest reg;
      reg.op = ServeOp::kRegister;
      reg.seq = seq_++;
      reg.session = sessions_[0].handle;
      reg.system = pool_[t].text;
      const ServeResponse r = client_->call(reg);
      if (r.status != ServeStatus::kOk || r.content != t) {
        throw std::runtime_error("register failed: " + r.error);
      }
    }
  }

  void close() { client_.reset(); }

  /// Closed loop until `end`; `stats.verdicts` decides what counts.
  void run_closed(Clock::time_point end, PhaseStats& stats,
                  SpanRecorder& spans, bool trace) {
    begin_phase(stats, spans, trace, false);
    const double cpu0 = thread_cpu_s();
    const auto wall0 = Clock::now();
    std::size_t cursor = 0;
    bool sending = true;
    for (;;) {
      std::size_t stuck = 0;
      while (sending && inflight_.size() < static_cast<std::size_t>(kPipeline) &&
             stuck < sessions_.size()) {
        const auto now = Clock::now();
        if (now >= end) {
          sending = false;
          break;
        }
        if (!queue_request(cursor++ % sessions_.size(), now, false)) {
          ++stuck;
        } else {
          stuck = 0;
        }
      }
      flush();
      if (inflight_.empty()) {
        if (!sending) break;
        continue;
      }
      receive_some();
    }
    stats.cpu_s += thread_cpu_s() - cpu0;
    stats.wall_s += us_between(wall0, Clock::now()) * 1e-6;
  }

  /// Open loop: this connection owns every other slot of a schedule at
  /// `rate` requests/s over both connections.
  void run_open(Clock::time_point start, Clock::time_point end, double rate,
                PhaseStats& stats, SpanRecorder& spans, bool trace) {
    begin_phase(stats, spans, trace, true);
    const auto interval = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 * kConnections / rate));
    auto due = start + interval * index_ / kConnections;
    std::size_t cursor = 0;
    const auto drain_deadline = end + std::chrono::seconds(20);
    for (;;) {
      const auto now = Clock::now();
      while (due <= now && due < end) {
        queue_request(cursor++ % sessions_.size(), due, true);
        due += interval;
      }
      flush();
      if (due >= end && inflight_.empty()) break;
      if (now >= drain_deadline) break;
      // Wait for a response or the next due time, whichever comes first;
      // never block in recv() while a request is due. The last stretch
      // before a due time is spun: a vCPU woken from idle can start
      // hundreds of microseconds late, which would be charged as latency.
      constexpr std::int64_t kSpinNs = 150'000;
      const std::int64_t until_due =
          due < end ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                          due - Clock::now())
                          .count()
                    : 50'000'000;
      const std::int64_t wait = until_due > kSpinNs ? until_due - kSpinNs : 0;
      pollfd p{client_->fd(), POLLIN, 0};
      timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                  static_cast<long>(wait % 1'000'000'000)};
      if (::ppoll(&p, 1, &ts, nullptr) > 0 && !inflight_.empty()) {
        receive_some();
      }
    }
  }

  [[nodiscard]] const std::vector<Event>& log() const noexcept { return log_; }
  [[nodiscard]] const std::vector<std::string>& captured_frames() const {
    return captured_frames_;
  }
  [[nodiscard]] const std::vector<ServeResponse>& captured_responses() const {
    return captured_responses_;
  }
  [[nodiscard]] std::uint64_t request_id(std::uint64_t seq) const noexcept {
    return (static_cast<std::uint64_t>(index_ + 1) << 40) | seq;
  }

 private:
  struct SessionState {
    std::uint64_t handle = 0;
    std::vector<std::uint64_t> known;  ///< releasable resident ids
    std::size_t projected = 0;         ///< residents once in-flight lands
    std::uint64_t next_id = 0;         ///< id the next admitted task gets
  };
  struct Inflight {
    Clock::time_point due;
    Clock::time_point sent;
    std::size_t event = 0;
    std::int64_t predicted = -1;  ///< id made releasable before the answer
  };

  void begin_phase(PhaseStats& stats, SpanRecorder& spans, bool trace,
                   bool open) {
    stats_ = &stats;
    spans_ = &spans;
    trace_ = trace;
    open_ = open;
  }

  /// Chooses the next request for a session and frames it into the send
  /// buffer: an admit below the resident cap, else a release of the newest
  /// resident. False when the session cannot send now (closed loop: at its
  /// cap with every admit still in flight; the open loop sends a query
  /// instead so the schedule never slips).
  bool queue_request(std::size_t si, Clock::time_point due, bool open) {
    SessionState& s = sessions_[si];
    ServeRequest req;
    req.seq = seq_++;
    req.session = s.handle;
    req.echo_stages = trace_;
    Event e;
    e.seq = req.seq;
    e.session = static_cast<std::uint16_t>(si);
    if (s.projected < kResidents) {
      req.op = ServeOp::kAdmit;
      e.task = static_cast<std::uint32_t>(next_task_++ % pool_.size());
      req.has_content = true;
      req.content = e.task;
      ++s.projected;
    } else if (!s.known.empty()) {
      req.op = ServeOp::kRelease;
      e.release_id = static_cast<std::int32_t>(s.known.back());
      s.known.pop_back();
      req.release_ids.push_back(static_cast<SessionTaskId>(e.release_id));
      --s.projected;
    } else if (open) {
      req.op = ServeOp::kQuery;
    } else {
      --seq_;
      return false;
    }
    // The closed loop releases ids the session will assign before the
    // admit's answer lands (ids are sequential per session, and the pool
    // always fits, so no admit is rejected). Its in-flight cap stays below
    // the daemon's queue depth, so no admit is refused with RETRY_AFTER
    // and the predicted ids hold. The open loop can be shed under a stall.
    std::int64_t predicted = -1;
    if (req.op == ServeOp::kAdmit) {
      if (!open) {
        predicted = static_cast<std::int64_t>(s.next_id);
        s.known.push_back(s.next_id);
      }
      ++s.next_id;
    }
    e.op = req.op;
    const std::size_t before = sendbuf_.size();
    sendbuf_ += serve::encode_frame(serve::encode_serve_request(req));
    if (trace_ && captured_frames_.size() < kCaptureCap) {
      captured_frames_.push_back(sendbuf_.substr(before));
    }
    inflight_.emplace(req.seq, Inflight{due, due, log_.size(), predicted});
    just_queued_.push_back(req.seq);
    log_.push_back(e);
    return true;
  }

  void flush() {
    if (sendbuf_.empty()) return;
    client_->send_bytes(sendbuf_);
    const auto sent = Clock::now();
    for (const std::uint64_t seq : just_queued_) {
      Inflight& f = inflight_.at(seq);
      f.sent = sent;
      if (open_) stats_->lag_us.add(us_between(f.due, sent));
    }
    just_queued_.clear();
    sendbuf_.clear();
  }

  /// One blocking read, then every response it buffered.
  void receive_some() {
    process(client_->recv());
    ServeResponse buffered;
    while (client_->try_recv(buffered)) process(buffered);
  }

  void process(const ServeResponse& resp) {
    const auto now = Clock::now();
    const auto it = inflight_.find(resp.seq);
    if (it == inflight_.end()) {
      throw std::runtime_error("response for unknown seq " +
                               std::to_string(resp.seq));
    }
    const Inflight f = it->second;
    inflight_.erase(it);
    Event& e = log_[f.event];
    SessionState& s = sessions_[e.session];
    const bool ok = resp.status == ServeStatus::kOk && resp.has_verdict;
    e.status = ok ? kOk
                  : resp.status == ServeStatus::kRetryAfter ? kRetry : kError;
    if (ok) {
      e.applied = resp.applied;
      e.schedulable = resp.schedulable;
      e.reject = reject_code(resp.reject);
      e.residents = static_cast<std::uint32_t>(resp.residents);
      e.task_ids = static_cast<std::uint8_t>(std::min<std::size_t>(resp.task_ids.size(), 255));
      e.task_id = resp.task_ids.empty()
                      ? -1
                      : static_cast<std::int32_t>(resp.task_ids.front());
    }
    if (!ok && e.op == ServeOp::kAdmit) {
      --s.next_id;  // a shed or refused admit consumed no session id
    }
    switch (e.op) {
      case ServeOp::kAdmit:
        if (ok && resp.applied) {
          if (f.predicted < 0 && !resp.task_ids.empty()) {
            s.known.push_back(resp.task_ids.front());
          }
        } else {
          --s.projected;
          const auto pos = std::find(s.known.begin(), s.known.end(),
                                     static_cast<std::uint64_t>(f.predicted));
          if (f.predicted >= 0 && pos != s.known.end()) s.known.erase(pos);
        }
        break;
      case ServeOp::kRelease:
        if (!ok) {
          s.known.push_back(static_cast<std::uint64_t>(e.release_id));
          ++s.projected;
        }
        break;
      default:
        break;
    }
    if (open_) {
      // A refused or failed request misses every latency limit.
      stats_->latency_us.add(f.due,
                             ok ? us_between(f.due, now) : kFailedLatencyUs);
      stats_->sent_latency_us.add(us_between(f.sent, now));
    } else if (ok) {
      stats_->verdicts.add(now, 0.0);
    }
    if (resp.has_stages) {
      stats_->queue_us.add(static_cast<double>(resp.stage_queue_us));
      stats_->batch_us.add(static_cast<double>(resp.stage_batch_us));
      stats_->handle_us.add(static_cast<double>(resp.stage_handle_us));
    }
    if (trace_) {
      if (e.seq % kSpanEvery == 0) {
        spans_->record("client.request", "serve", f.sent, now,
                       request_id(e.seq));
      }
      if (captured_responses_.size() < kCaptureCap) {
        captured_responses_.push_back(resp);
      }
    }
  }

  const std::vector<WorkTask>& pool_;
  int index_;
  std::optional<serve::ServeClient> client_;
  std::vector<SessionState> sessions_;
  std::uint64_t seq_ = 0;
  std::size_t next_task_ = 0;
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  std::vector<std::uint64_t> just_queued_;
  std::string sendbuf_;
  std::vector<Event> log_;
  std::vector<std::string> captured_frames_;
  std::vector<ServeResponse> captured_responses_;
  // Current phase.
  PhaseStats* stats_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  bool trace_ = false;
  bool open_ = false;
};

/// Runs `body(connection, index)` on one thread per connection and rethrows
/// the first failure after every thread has joined.
template <typename Body>
void on_connection_threads(std::vector<std::unique_ptr<Connection>>& conns,
                           Body body) {
  std::vector<std::exception_ptr> errors(conns.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        ::prctl(PR_SET_TIMERSLACK, 1UL);  // open-loop wakeups on time
        body(*conns[i], i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ----------------------------------------------------------------- stats --

/// The daemon's cumulative counters at one instant.
struct DaemonCounters {
  double uptime_us = 0, requests = 0, batches = 0, reader_us = 0,
         handle_us = 0, write_us = 0, dispatch_us = 0, high_watermark = 0;
};

DaemonCounters fetch_counters(serve::ServeClient& control, std::uint64_t seq) {
  ServeRequest req;
  req.op = ServeOp::kStats;
  req.seq = seq;
  const ServeResponse resp = control.call(req);
  if (resp.status != ServeStatus::kOk) {
    throw std::runtime_error("stats failed: " + resp.error);
  }
  const auto fields = parse_mini_json(resp.raw);
  const auto get = [&](const char* key) {
    return static_cast<double>(mini_json_uint(fields.at(key)));
  };
  DaemonCounters c;
  c.uptime_us = get("uptime_us");
  c.requests = get("requests_enqueued");
  c.batches = get("batches");
  c.reader_us = get("reader_busy_us");
  c.handle_us = get("handle_us");
  c.write_us = get("write_us");
  c.dispatch_us = get("dispatch_busy_us");
  c.high_watermark = get("queue_high_watermark");
  return c;
}

void shutdown_daemon(const std::string& socket) {
  serve::ServeClient control = serve::ServeClient::connect_unix(socket);
  ServeRequest req;
  req.op = ServeOp::kShutdown;
  const ServeResponse resp = control.call(req);
  if (resp.status != ServeStatus::kOk) {
    throw std::runtime_error("shutdown failed: " + resp.error);
  }
}

// ---------------------------------------------------------------- replay --

struct ReplayStats {
  Samples admit_us, release_us, query_us;
  std::uint64_t events = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t bins_revalidated = 0;
  std::uint64_t placements_replayed = 0;

  void merge(const ReplayStats& o) {
    admit_us.append(o.admit_us);
    release_us.append(o.release_us);
    query_us.append(o.query_us);
    events += o.events;
    mismatches += o.mismatches;
    bins_revalidated += o.bins_revalidated;
    placements_replayed += o.placements_replayed;
  }
};

bool outcome_matches(const EventOutcome& out, const Event& e,
                     const AdmissionSession& s) {
  const std::int32_t first =
      out.admitted_ids.empty()
          ? -1
          : static_cast<std::int32_t>(out.admitted_ids.front());
  return out.applied == e.applied && out.schedulable == e.schedulable &&
         static_cast<std::uint8_t>(out.reject_reason) == e.reject &&
         first == e.task_id && out.admitted_ids.size() == e.task_ids &&
         s.num_residents() == e.residents;
}

/// Replays one connection's answered events through fresh in-process
/// sessions; every verdict must equal the daemon's. With `timed`, each
/// session call is timed and sampled calls become spans sharing the
/// request's id.
void replay(const std::vector<WorkTask>& pool, const Connection& conn,
            bool timed, SpanRecorder& spans, ReplayStats& out) {
  AdmissionSession::Config cfg;
  cfg.processors = kProcessors;
  std::vector<std::unique_ptr<AdmissionSession>> sessions;
  for (int i = 0; i < kSessionsPerConnection; ++i) {
    sessions.push_back(std::make_unique<AdmissionSession>(cfg));
  }
  for (const Event& e : conn.log()) {
    if (e.status != kOk) continue;
    AdmissionSession& s = *sessions[e.session];
    const auto t0 = Clock::now();
    bool match = false;
    Samples* bucket = &out.query_us;
    const char* name = "online.query";
    EventOutcome outcome;
    try {
    switch (e.op) {
      case ServeOp::kAdmit:
        outcome = s.admit(pool[e.task].task);
        match = outcome_matches(outcome, e, s);
        bucket = &out.admit_us;
        name = "online.admit";
        break;
      case ServeOp::kRelease:
        outcome = s.release(static_cast<SessionTaskId>(e.release_id));
        match = outcome_matches(outcome, e, s);
        bucket = &out.release_us;
        name = "online.release";
        break;
      default: {
        const SessionVerdict v = s.verdict();
        match = v.success == e.schedulable &&
                static_cast<std::uint8_t>(v.failure) == e.reject &&
                s.num_residents() == e.residents;
        break;
      }
    }
    } catch (const std::exception&) {
      match = false;  // the daemon answered an event the library refuses
    }
    const auto t1 = Clock::now();
    ++out.events;
    if (!match) ++out.mismatches;
    out.bins_revalidated += outcome.bins_revalidated;
    out.placements_replayed += outcome.placements_replayed;
    if (timed) {
      bucket->add(us_between(t0, t1));
      if (e.seq % kSpanEvery == 0) {
        spans.record(name, "online", t0, t1, conn.request_id(e.seq));
      }
    }
  }
}

// ---------------------------------------------------------- layer timing --

/// Median of `reps` timings of `body`, in microseconds per item.
template <typename Body>
double per_item_us(std::size_t items, int reps, Body body) {
  if (items == 0) return 0.0;
  Samples s;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    s.add(us_between(t0, Clock::now()) / static_cast<double>(items));
  }
  return s.percentile(50).value;
}

/// Frame decode, request parse and response encode on the bytes this run
/// actually sent and received.
void time_wire_layers(const std::vector<std::unique_ptr<Connection>>& conns,
                      Report& rep) {
  std::string stream;
  std::size_t frames = 0;
  std::vector<const ServeResponse*> responses;
  for (const auto& c : conns) {
    for (const std::string& f : c->captured_frames()) {
      stream += f;
      ++frames;
    }
    for (const ServeResponse& r : c->captured_responses()) responses.push_back(&r);
  }
  std::vector<std::string> payloads;
  payloads.reserve(frames);
  {
    serve::FrameDecoder d;
    d.feed(stream.data(), stream.size());
    std::string p;
    while (d.next(p)) payloads.push_back(p);
  }
  std::uint64_t sink = 0;
  const double decode = per_item_us(frames, 5, [&] {
    serve::FrameDecoder d;
    d.feed(stream.data(), stream.size());
    std::string p;
    while (d.next(p)) sink += p.size();
  });
  const double parse = per_item_us(payloads.size(), 5, [&] {
    for (const std::string& p : payloads) sink += serve::parse_serve_request(p).seq;
  });
  const double encode = per_item_us(responses.size(), 5, [&] {
    for (const ServeResponse* r : responses) sink += serve::encode_serve_response(*r).size();
  });
  rep.add("serve.frame_decode_us", decode, "us", "frames=" + std::to_string(frames));
  rep.add("serve.parse_request_us", parse, "us",
          "requests=" + std::to_string(payloads.size()));
  rep.add("serve.encode_response_us", encode, "us",
          "responses=" + std::to_string(responses.size()) +
              " checksum=" + std::to_string(sink % 1000));
}

/// The daemon parses each registered text once, during set-up; the same
/// public parse in-process on the pool's texts.
void time_parse_layer(const std::vector<WorkTask>& pool, Report& rep) {
  constexpr int kRounds = 200;
  std::uint64_t sink = 0;
  const double parse = per_item_us(pool.size() * kRounds, 5, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (const WorkTask& w : pool) sink += parse_task_system(w.text).size();
    }
  });
  std::string detail = "texts=" + std::to_string(pool.size());
  detail += " rounds=" + std::to_string(kRounds);
  detail += " tasks=" + std::to_string(sink);
  rep.add("core.parse_task_system_us", parse, "us", detail);
}

Samples merged(const std::vector<PhaseStats>& stats,
               Samples PhaseStats::*member) {
  Samples all;
  for (const PhaseStats& s : stats) all.append(s.*member);
  return all;
}

}  // namespace

Report run_serve(const RunConfig& config) {
  Report rep;
  rep.workload = config.workload;
  const std::vector<WorkTask> pool = make_pool(config.seed);
  const std::string socket =
      config.work_dir + "/pb-" + std::to_string(::getpid()) + ".sock";
  const std::vector<std::string> daemon_argv = {config.serve_bin,
                                                "--socket=" + socket};
  rep.stamp("daemon_flags", "--socket=<run dir>/pb-<pid>.sock (defaults otherwise)");
  rep.stamp("connections", std::to_string(kConnections));
  rep.stamp("sessions", std::to_string(kConnections * kSessionsPerConnection));
  rep.stamp("open_rate_per_s", std::to_string(static_cast<long long>(kOpenRate)));

  // Set-up: spawn -> ready -> connect -> open -> register, repeated; the
  // fastest is setup_s (interference only ever slows a repetition) and the
  // last daemon serves the run.
  std::optional<DaemonProcess> daemon;
  std::vector<std::unique_ptr<Connection>> conns;
  Samples setup_s;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    if (daemon) {
      for (auto& c : conns) c->close();
      shutdown_daemon(socket);
      daemon->wait_exit(std::chrono::seconds(10));
      daemon.reset();
    }
    conns.clear();
    const auto t0 = Clock::now();
    daemon.emplace(daemon_argv, config.pinned ? &config.daemon_mask : nullptr);
    for (int i = 0; i < kConnections; ++i) {
      conns.push_back(std::make_unique<Connection>(pool, i));
      conns.back()->setup(socket);
    }
    setup_s.add(us_between(t0, Clock::now()) * 1e-6);
  }
  serve::ServeClient control = serve::ServeClient::connect_unix(socket);
  std::uint64_t control_seq = 0;

  // One span recorder per client thread, then one per replay thread.
  std::vector<SpanRecorder> recorders;
  for (int i = 0; i < 2 * kConnections; ++i) recorders.emplace_back(config.trace, i + 1);

  // Closed loop: capacity, with the daemon's counters differenced over the
  // measured window.
  struct Closed {
    double verdicts_per_s = 0;
    std::string windows;
    double driver_busy = 0;
    DaemonCounters a, b;
    std::vector<PhaseStats> stats;
  };
  const auto closed_phase = [&](double seconds, bool trace) {
    Closed out;
    out.stats.resize(conns.size());
    const auto start = Clock::now();
    const auto from = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds * kWarmupShare));
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    for (PhaseStats& s : out.stats) s.verdicts = WindowedSamples(from, end, kWindowS);
    std::exception_ptr sampler_error;
    std::thread sampler([&] {
      try {
        std::this_thread::sleep_until(from);
        out.a = fetch_counters(control, control_seq++);
        std::this_thread::sleep_until(end);
        out.b = fetch_counters(control, control_seq++);
      } catch (...) {
        sampler_error = std::current_exception();
      }
    });
    try {
      on_connection_threads(conns, [&](Connection& c, std::size_t i) {
        c.run_closed(end, out.stats[i], recorders[i], trace);
      });
    } catch (...) {
      sampler.join();
      throw;
    }
    sampler.join();
    if (sampler_error) std::rethrow_exception(sampler_error);
    WindowedSamples verdicts(from, end, kWindowS);
    for (const PhaseStats& s : out.stats) {
      verdicts.append(s.verdicts);
      out.driver_busy = std::max(out.driver_busy, s.cpu_s / std::max(s.wall_s, 1e-9));
    }
    out.verdicts_per_s = verdicts.rate_per_s();
    out.windows = verdicts.rates_detail();
    return out;
  };
  const auto open_phase = [&](double seconds, bool trace) {
    std::vector<PhaseStats> stats(conns.size());
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    for (PhaseStats& s : stats) s.latency_us = WindowedSamples(start, end, kWindowS);
    on_connection_threads(conns, [&](Connection& c, std::size_t i) {
      c.run_open(start, end, kOpenRate, stats[i], recorders[i], trace);
    });
    return stats;
  };

  const double S = config.seconds;
  Closed closed;
  double untraced_vps = 0.0;
  if (config.trace) {
    untraced_vps = closed_phase(S * kClosedShare / 2, false).verdicts_per_s;
    closed = closed_phase(S * kClosedShare / 2, true);
  } else {
    closed = closed_phase(S * kClosedShare, false);
  }
  std::vector<PhaseStats> open =
      open_phase(S * (1 - kClosedShare), config.trace);

  const double rss_mb = vm_hwm_mb(daemon->pid());
  for (auto& c : conns) c->close();
  shutdown_daemon(socket);
  const bool clean_exit = daemon->wait_exit(std::chrono::seconds(20));
  daemon.reset();
  if (!clean_exit) rep.warnings.push_back("fedcons_serve did not exit cleanly");

  // Verdict check: replay every session's answered events in-process, one
  // thread per connection (sessions never span connections).
  std::vector<ReplayStats> per_conn(conns.size());
  on_connection_threads(conns, [&](Connection& c, std::size_t i) {
    replay(pool, c, config.trace, recorders[kConnections + i], per_conn[i]);
  });
  ReplayStats replayed;
  for (const ReplayStats& r : per_conn) replayed.merge(r);
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& c : conns) {
    attempted += c->log().size();
    for (const Event& e : c->log()) failed += e.status != kOk ? 1 : 0;
  }
  rep.attempted = attempted;
  rep.mismatches = replayed.mismatches;
  rep.failed = failed + replayed.mismatches;

  const DaemonCounters& a = closed.a;
  const DaemonCounters& b = closed.b;
  const double d_req = std::max(b.requests - a.requests, 1.0);
  const double dispatch_busy = (b.dispatch_us - a.dispatch_us) /
                               std::max(b.uptime_us - a.uptime_us, 1.0);
  WindowedSamples latency = open.front().latency_us;
  for (std::size_t i = 1; i < open.size(); ++i) latency.append(open[i].latency_us);
  Samples lag = merged(open, &PhaseStats::lag_us);
  const auto lag99 = lag.percentile(99);
  if (closed.driver_busy >= 0.9 && dispatch_busy < 0.9) {
    rep.warnings.push_back(
        "driver-bound: the client threads, not the daemon, limit verdicts_per_s");
  }
  if (lag99.value > 1000.0) {
    rep.warnings.push_back("open loop ran late: driver.lag_p99_us > 1 ms");
  }

  if (!config.trace) {
    rep.add("verdicts_per_s", closed.verdicts_per_s, "1/s",
            "closed loop, " + closed.windows);
    rep.add_percentile("latency_p50_us", latency.percentile(50), "us");
    rep.add_percentile("latency_p90_us", latency.percentile(90), "us");
    rep.add_percentile("latency_p99_us", latency.percentile(99), "us");
    rep.add("setup_s", setup_s.min(), "s",
            "fastest of " + std::to_string(kSetupRepetitions) + " set-ups");
    rep.add("rss_peak_mb", rss_mb, "MB", "daemon VmHWM");
    rep.add("driver.busy_frac", closed.driver_busy, "ratio");
    rep.add("serve.dispatch_busy_frac", dispatch_busy, "ratio");
    rep.add_percentile("driver.lag_p99_us", lag99, "us");
    return rep;
  }

  // Traced run: per-layer metrics.
  rep.add_percentile("serve.queue_wait_us_p50",
                     merged(open, &PhaseStats::queue_us).percentile(50), "us");
  rep.add_percentile("serve.queue_wait_us_p99",
                     merged(open, &PhaseStats::queue_us).percentile(99), "us");
  rep.add_percentile("serve.batch_form_us_p50",
                     merged(open, &PhaseStats::batch_us).percentile(50), "us");
  rep.add_percentile("serve.batch_form_us_p99",
                     merged(open, &PhaseStats::batch_us).percentile(99), "us");
  rep.add("serve.handle_us_per_verdict", (b.handle_us - a.handle_us) / d_req, "us");
  rep.add("serve.reader_busy_us_per_req", (b.reader_us - a.reader_us) / d_req, "us");
  rep.add("serve.write_us_per_req", (b.write_us - a.write_us) / d_req, "us");
  rep.add("serve.batch_size_mean",
          d_req / std::max(b.batches - a.batches, 1.0), "count");
  rep.add("serve.dispatch_busy_frac", dispatch_busy, "ratio");
  rep.add("serve.queue_high_watermark", b.high_watermark, "count");
  const double stage_sum = merged(open, &PhaseStats::queue_us).mean() +
                           merged(open, &PhaseStats::batch_us).mean() +
                           merged(open, &PhaseStats::handle_us).mean();
  rep.add("serve.client_residual_us",
          merged(open, &PhaseStats::sent_latency_us).mean() - stage_sum, "us",
          "client mean minus echoed stage means, open loop");
  time_wire_layers(conns, rep);

  const auto mean_us = [](Samples& s) { return s.mean(); };
  rep.add("online.admit_us", mean_us(replayed.admit_us), "us",
          "n=" + std::to_string(replayed.admit_us.count()));
  rep.add("online.release_us", mean_us(replayed.release_us), "us",
          "n=" + std::to_string(replayed.release_us.count()));
  rep.add("online.query_us", mean_us(replayed.query_us), "us",
          "n=" + std::to_string(replayed.query_us.count()));
  const double events = static_cast<double>(std::max<std::uint64_t>(replayed.events, 1));
  rep.add("online.bins_revalidated_per_event",
          static_cast<double>(replayed.bins_revalidated) / events, "count");
  rep.add("online.placements_replayed_per_event",
          static_cast<double>(replayed.placements_replayed) / events, "count");
  time_parse_layer(pool, rep);

  rep.add_percentile("driver.lag_p99_us", lag99, "us");
  rep.add("driver.busy_frac", closed.driver_busy, "ratio");
  rep.add("trace_overhead_pct",
          (untraced_vps - closed.verdicts_per_s) / untraced_vps * 100.0, "%",
          "closed loop, untraced vs traced");

  std::vector<const SpanRecorder*> all;
  for (const SpanRecorder& r : recorders) all.push_back(&r);
  const std::string trace_path = config.work_dir + "/perfbench-" + config.workload +
                                 "-s" + std::to_string(config.seed) + ".trace.json";
  write_chrome_trace(trace_path, all);
  rep.stamp("span_file", trace_path);
  return rep;
}

}  // namespace perfbench
