// Loopback integration tests: a real fedcons_serve daemon on a unix socket,
// driven end to end. Three contracts are proven here:
//
//  1. Protocol semantics over a live socket — open/register/admit/release/
//     swap/query/stats behave per serve/protocol.h, request-level errors are
//     recoverable, framing errors close only the offending connection.
//  2. Verdict parity — replaying an online trace through the daemon yields
//     byte-identical verdict lines across daemon instances and
//     event-for-event identical verdicts to the in-process
//     `fedcons_cli --online --json` replay of the same trace.
//  3. Isolation — every connection is served by its own thread, so a
//     request that occupies one connection (a long stall) does not delay
//     another connection's answers.
//
// Daemon/cli binaries are injected as compile definitions by CMake.
#include <gtest/gtest.h>

#ifdef _WIN32
#error "this suite forks a daemon and decodes POSIX wait statuses"
#endif
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fedcons/core/dag.h"
#include "fedcons/core/io.h"
#include "fedcons/core/task_system.h"
#include "fedcons/online/trace.h"
#include "fedcons/serve/client.h"
#include "fedcons/serve/protocol.h"
#include "fedcons/util/check.h"
#include "test_json.h"

namespace fedcons {
namespace {

const std::string kServeBin = FEDCONS_SERVE_BIN;
const std::string kCliBin = FEDCONS_CLI_BIN;

/// A daemon child process bound to a per-test unix socket. The destructor
/// SIGTERMs and reaps it, so a failing test cannot leak the process.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> extra_args = {}) {
    static int counter = 0;
    socket_path_ = ::testing::TempDir() + "/serve_loopback_" +
                   std::to_string(::getpid()) + "_" +
                   std::to_string(counter++) + ".sock";
    std::vector<std::string> args = {kServeBin, "--socket=" + socket_path_};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    pid_ = ::fork();
    FEDCONS_EXPECTS_MSG(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      // Child: silence the readiness/stats lines, exec the daemon.
      std::freopen("/dev/null", "w", stdout);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);  // exec failed
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      wait_exit();
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket_path() const {
    return socket_path_;
  }

  [[nodiscard]] serve::ServeClient connect() const {
    return serve::ServeClient::connect_unix(socket_path_);
  }

  /// Reap the child; returns its exit code (or -1 on a signal death).
  int wait_exit() {
    if (pid_ <= 0) return -2;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// SIGTERM + reap: the signal-driven half of the drain contract.
  int terminate() {
    if (pid_ > 0) ::kill(pid_, SIGTERM);
    return wait_exit();
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

DagTask make_task(long long vol, long long deadline, long long period,
                  const std::string& name) {
  Dag g;
  g.add_vertex(vol);
  return DagTask(g, deadline, period, name);
}

serve::ServeRequest make_request(serve::ServeOp op, std::uint64_t seq) {
  serve::ServeRequest req;
  req.op = op;
  req.seq = seq;
  return req;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- protocol semantics over a live socket ---------------------------------

TEST(ServeLoopbackTest, SessionLifecycleEndToEnd) {
  Daemon daemon;
  serve::ServeClient client = daemon.connect();

  serve::ServeRequest open = make_request(serve::ServeOp::kOpen, 1);
  open.m = 4;
  const serve::ServeResponse opened = client.call(open);
  ASSERT_EQ(opened.status, serve::ServeStatus::kOk) << opened.error;
  ASSERT_TRUE(opened.has_session);
  EXPECT_EQ(opened.seq, 1u);

  serve::ServeRequest reg = make_request(serve::ServeOp::kRegister, 2);
  reg.session = opened.session;
  reg.system = serialize_task_system(
      TaskSystem({make_task(10, 90, 100, "low")}));
  const serve::ServeResponse registered = client.call(reg);
  ASSERT_EQ(registered.status, serve::ServeStatus::kOk) << registered.error;
  ASSERT_TRUE(registered.has_content);

  // Admit twice by handle: both accepted, residents grows.
  for (std::uint64_t seq = 3; seq <= 4; ++seq) {
    serve::ServeRequest admit = make_request(serve::ServeOp::kAdmit, seq);
    admit.session = opened.session;
    admit.has_content = true;
    admit.content = registered.content;
    const serve::ServeResponse verdict = client.call(admit);
    ASSERT_EQ(verdict.status, serve::ServeStatus::kOk) << verdict.error;
    ASSERT_TRUE(verdict.has_verdict);
    EXPECT_TRUE(verdict.applied);
    EXPECT_TRUE(verdict.schedulable);
    EXPECT_EQ(verdict.reject, "accepted");
    ASSERT_EQ(verdict.task_ids.size(), 1u);
    EXPECT_EQ(verdict.residents, seq - 2);
  }

  // Admit a third task inline (no handle): same verdict shape.
  serve::ServeRequest inline_admit = make_request(serve::ServeOp::kAdmit, 5);
  inline_admit.session = opened.session;
  inline_admit.system =
      serialize_task_system(TaskSystem({make_task(20, 80, 100, "mid")}));
  const serve::ServeResponse inline_verdict = client.call(inline_admit);
  ASSERT_EQ(inline_verdict.status, serve::ServeStatus::kOk)
      << inline_verdict.error;
  EXPECT_TRUE(inline_verdict.applied);
  EXPECT_EQ(inline_verdict.residents, 3u);

  // Release the inline admit; query confirms the remaining pair.
  serve::ServeRequest release = make_request(serve::ServeOp::kRelease, 6);
  release.session = opened.session;
  release.release_ids = {inline_verdict.task_ids.at(0)};
  const serve::ServeResponse released = client.call(release);
  ASSERT_EQ(released.status, serve::ServeStatus::kOk) << released.error;
  EXPECT_TRUE(released.applied);
  EXPECT_EQ(released.residents, 2u);

  serve::ServeRequest query = make_request(serve::ServeOp::kQuery, 7);
  query.session = opened.session;
  const serve::ServeResponse queried = client.call(query);
  ASSERT_EQ(queried.status, serve::ServeStatus::kOk) << queried.error;
  EXPECT_TRUE(queried.schedulable);
  EXPECT_EQ(queried.residents, 2u);

  // Stats reflects the traffic so far (counters travel in the raw payload).
  const serve::ServeResponse stats =
      client.call(make_request(serve::ServeOp::kStats, 8));
  ASSERT_EQ(stats.status, serve::ServeStatus::kOk) << stats.error;
  EXPECT_NE(stats.raw.find("\"requests_enqueued\""), std::string::npos);
  EXPECT_NE(stats.raw.find("\"batch_size\""), std::string::npos);

  // Protocol-initiated shutdown: the daemon answers, drains, exits 0.
  const serve::ServeResponse bye =
      client.call(make_request(serve::ServeOp::kShutdown, 9));
  EXPECT_EQ(bye.status, serve::ServeStatus::kOk);
  EXPECT_EQ(daemon.wait_exit(), 0);
}

TEST(ServeLoopbackTest, RequestErrorsAreRecoverable) {
  Daemon daemon;
  serve::ServeClient client = daemon.connect();

  // Unknown session: error response, connection stays up.
  serve::ServeRequest query = make_request(serve::ServeOp::kQuery, 1);
  query.session = 42;
  const serve::ServeResponse err = client.call(query);
  EXPECT_EQ(err.status, serve::ServeStatus::kError);
  EXPECT_NE(err.error.find("unknown session"), std::string::npos);

  // Well-framed garbage integer (the lax-parsing bug class): a loud error
  // response — not a silently mangled request — and the stream stays usable.
  client.send_bytes(
      serve::encode_frame(R"({"op": "query", "seq": 2, "session": 4x2})"));
  const serve::ServeResponse parse_err = client.recv();
  EXPECT_EQ(parse_err.status, serve::ServeStatus::kError);

  const serve::ServeResponse pong =
      client.call(make_request(serve::ServeOp::kPing, 3));
  EXPECT_EQ(pong.status, serve::ServeStatus::kOk);
  EXPECT_EQ(pong.seq, 3u);
}

TEST(ServeLoopbackTest, FramingErrorClosesOnlyThatConnection) {
  Daemon daemon;
  serve::ServeClient bad = daemon.connect();
  serve::ServeClient good = daemon.connect();

  // Corrupt length prefix: one error response, then EOF on this connection.
  bad.send_bytes("banana\n");
  const serve::ServeResponse err = bad.recv();
  EXPECT_EQ(err.status, serve::ServeStatus::kError);
  EXPECT_THROW((void)bad.recv(), ContractViolation);

  // The other connection is unaffected.
  const serve::ServeResponse pong =
      good.call(make_request(serve::ServeOp::kPing, 1));
  EXPECT_EQ(pong.status, serve::ServeStatus::kOk);
}

TEST(ServeLoopbackTest, SigtermDrainsAndExitsZero) {
  Daemon daemon;
  serve::ServeClient client = daemon.connect();
  const serve::ServeResponse pong =
      client.call(make_request(serve::ServeOp::kPing, 1));
  ASSERT_EQ(pong.status, serve::ServeStatus::kOk);

  // SIGTERM: clean drain, exit 0, and the daemon closes the connection on
  // its way out (EOF here, not a hang).
  EXPECT_EQ(daemon.terminate(), 0);
  EXPECT_THROW((void)client.recv(), ContractViolation);
}

// ---- verdict parity with the in-process CLI replay -------------------------

/// A deterministic trace with accepts, a rejection, releases, and a swap:
/// three heavy constrained-deadline tasks fit m=2 only two at a time, so the
/// third admit is refused; the swap then trades one heavy for two lights.
OnlineTrace make_parity_trace() {
  OnlineTrace trace;
  trace.processors = 2;
  const DagTask heavy0 = make_task(50, 60, 100, "heavy0");
  const DagTask heavy1 = make_task(50, 60, 100, "heavy1");
  const DagTask heavy2 = make_task(50, 60, 100, "heavy2");
  const DagTask light0 = make_task(5, 60, 100, "light0");
  const DagTask light1 = make_task(5, 60, 100, "light1");

  OnlineEvent admit;
  admit.kind = OnlineEvent::Kind::kAdmit;
  admit.admits = {heavy0};
  trace.events.push_back(admit);
  admit.admits = {heavy1};
  trace.events.push_back(admit);
  admit.admits = {heavy2};  // refused: no room on m=2
  trace.events.push_back(admit);
  admit.admits = {light0};
  trace.events.push_back(admit);

  OnlineEvent release;
  release.kind = OnlineEvent::Kind::kRelease;
  release.release_ids = {0};  // heavy0 departs
  trace.events.push_back(release);

  OnlineEvent swap;
  swap.kind = OnlineEvent::Kind::kSwap;
  swap.release_ids = {1};  // heavy1 out ...
  swap.admits = {light1};  // ... light1 in, atomically
  trace.events.push_back(swap);

  admit.admits = {heavy2};  // now it fits
  trace.events.push_back(admit);
  return trace;
}

/// Replay the online trace at `trace_path` through one session on the daemon
/// at `socket`, one request per event, and return one verdict line per
/// event: its index and kind, and the daemon's applied, schedulable,
/// task_ids and residents.
std::string replay_verdicts(const std::string& socket,
                            const std::string& trace_path) {
  const OnlineTrace trace = parse_online_trace(read_file(trace_path));
  serve::ServeClient client = serve::ServeClient::connect_unix(socket);
  std::uint64_t seq = 0;
  serve::ServeRequest open = make_request(serve::ServeOp::kOpen, seq++);
  open.m = trace.processors;
  const serve::ServeResponse opened = client.call(open);
  EXPECT_EQ(opened.status, serve::ServeStatus::kOk) << opened.error;

  std::string verdicts;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const OnlineEvent& e = trace.events[i];
    serve::ServeRequest req = make_request(serve::ServeOp::kAdmit, seq++);
    req.session = opened.session;
    if (e.kind != OnlineEvent::Kind::kAdmit) {
      req.op = e.kind == OnlineEvent::Kind::kRelease ? serve::ServeOp::kRelease
                                                      : serve::ServeOp::kSwap;
      req.release_ids = e.release_ids;
    }
    if (e.kind != OnlineEvent::Kind::kRelease) {
      req.system = serialize_task_system(TaskSystem(e.admits));
    }
    const serve::ServeResponse resp = client.call(req);
    EXPECT_EQ(resp.status, serve::ServeStatus::kOk)
        << "event " << i << ": " << resp.error;
    verdicts += "{\"index\": " + std::to_string(i) + ", \"event\": \"" +
                to_string(e.kind) + "\", \"applied\": " +
                (resp.applied ? "1" : "0") + ", \"schedulable\": " +
                (resp.schedulable ? "1" : "0") + ", \"task_ids\": \"" +
                serve::join_ids(resp.task_ids) + "\", \"residents\": " +
                std::to_string(resp.residents) + "}\n";
  }
  return verdicts;
}

TEST(ServeLoopbackTest, TraceReplayMatchesCliVerdicts) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/serve_parity.trace";
  const std::string cli_json_path = dir + "/serve_parity_cli.json";

  const OnlineTrace trace = make_parity_trace();
  {
    std::ofstream out(trace_path);
    out << write_online_trace(trace);
  }

  // In-process reference replay.
  ASSERT_EQ(std::system((kCliBin + " --online=" + trace_path +
                         " --json > " + cli_json_path + " 2>/dev/null")
                            .c_str()),
            0);

  // Daemon replay, twice against fresh daemons: the verdicts must be
  // byte-identical (replay determinism through the whole serve stack).
  std::string bytes_a;
  std::string bytes_b;
  for (std::string* bytes : {&bytes_a, &bytes_b}) {
    Daemon daemon;
    *bytes = replay_verdicts(daemon.socket_path(), trace_path);
  }
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);

  // Event-for-event parity with the CLI: kind, applied, schedulable, and
  // the resident count after every event.
  const testjson::ValuePtr cli = testjson::parse(read_file(cli_json_path));
  const auto& per_event = cli->at("per_event");
  ASSERT_TRUE(per_event.is_array());
  ASSERT_EQ(per_event.array.size(), trace.events.size());

  std::istringstream verdict_lines(bytes_a);
  std::string line;
  std::size_t index = 0;
  bool saw_reject = false;
  while (std::getline(verdict_lines, line)) {
    ASSERT_LT(index, per_event.array.size());
    const testjson::ValuePtr daemon_verdict = testjson::parse(line);
    const testjson::Value& cli_verdict = *per_event.array[index];
    EXPECT_EQ(daemon_verdict->at("event").string,
              cli_verdict.at("event").string)
        << "event " << index;
    EXPECT_EQ(daemon_verdict->at("applied").number != 0,
              cli_verdict.at("applied").boolean)
        << "event " << index;
    EXPECT_EQ(daemon_verdict->at("schedulable").number != 0,
              cli_verdict.at("schedulable").boolean)
        << "event " << index;
    EXPECT_EQ(daemon_verdict->at("residents").number,
              cli_verdict.at("residents").number)
        << "event " << index;
    saw_reject |= daemon_verdict->at("applied").number == 0;
    ++index;
  }
  EXPECT_EQ(index, trace.events.size());
  // The trace is only a meaningful parity probe if it exercises both
  // verdict polarities.
  EXPECT_TRUE(saw_reject);
}

TEST(ServeLoopbackTest, VerdictsAreByteIdenticalWithObservabilityOn) {
  // The PR-4 contract, extended to the serve pipeline: tracing (with
  // sample=1, every request stamped and emitting spans) must not perturb a
  // single verdict byte. Replay the parity trace against a plain daemon and
  // a fully-instrumented one; the verdicts must be byte-identical.
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/serve_obs_parity.trace";
  const std::string chrome_trace = dir + "/serve_obs_parity_trace.json";
  {
    std::ofstream out(trace_path);
    out << write_online_trace(make_parity_trace());
  }

  std::string off_bytes;
  std::string on_bytes;
  {
    Daemon plain;
    off_bytes = replay_verdicts(plain.socket_path(), trace_path);
  }
  {
    Daemon traced({"--trace-out=" + chrome_trace, "--trace-sample=1"});
    on_bytes = replay_verdicts(traced.socket_path(), trace_path);
  }
  ASSERT_FALSE(off_bytes.empty());
  EXPECT_EQ(off_bytes, on_bytes);
}

// ---- isolation -------------------------------------------------------------

TEST(ServeLoopbackTest, StalledConnectionDoesNotDelayAnother) {
  Daemon daemon;
  serve::ServeClient stalled = daemon.connect();
  serve::ServeClient other = daemon.connect();

  // Occupy the first connection for a second, with pings pipelined behind
  // the stall (more than one 32-response send's worth), and give the daemon
  // time to start the stall before the second connection asks anything.
  serve::ServeRequest stall = make_request(serve::ServeOp::kStall, 0);
  stall.stall_us = 1'000'000;
  std::string burst = serve::encode_frame(serve::encode_serve_request(stall));
  const std::uint64_t kPings = 64;
  for (std::uint64_t seq = 1; seq <= kPings; ++seq) {
    burst += serve::encode_frame(
        serve::encode_serve_request(make_request(serve::ServeOp::kPing, seq)));
  }
  stalled.send_bytes(burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto asked = std::chrono::steady_clock::now();
  const serve::ServeResponse pong =
      other.call(make_request(serve::ServeOp::kPing, 1000));
  const auto waited = std::chrono::steady_clock::now() - asked;
  EXPECT_EQ(pong.status, serve::ServeStatus::kOk);
  EXPECT_EQ(pong.seq, 1000u);
  EXPECT_LT(waited, std::chrono::milliseconds(500))
      << "the ping waited for another connection's stall";

  // The stalled connection's answers all arrive once the stall ends: the
  // stall first, then every pipelined ping, in request order.
  for (std::uint64_t seq = 0; seq <= kPings; ++seq) {
    const serve::ServeResponse resp = stalled.recv();
    EXPECT_EQ(resp.status, serve::ServeStatus::kOk) << "seq " << seq;
    EXPECT_EQ(resp.seq, seq);
  }
}

}  // namespace
}  // namespace fedcons
