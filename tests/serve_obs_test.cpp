// Observability-plane integration tests against a live fedcons_serve daemon:
//
//  1. Stats schema — every stats payload carries schema_version (pinned to
//     serve::kStatsSchemaVersion), the uptime/monotonic clock pair, the
//     queue_depth gauge, and the four reconstructable histograms.
//  2. Stage echo — "stages": 1 on a request adds the stage_*_us breakdown to
//     that response and only that response.
//  3. Prometheus export — stats?format=prometheus carries the exposition
//     text.
//  4. fedcons_top — renders a lifetime frame plus interval frames against a
//     live daemon and exits cleanly in --plain mode.
//  5. Trace chain — with --trace-out and --trace-sample=1 every request's
//     read -> handle -> encoded -> sent path lands in the Perfetto JSON as
//     queue/handle/write spans sharing one trace_id, in stage order.
//
// Daemon/top binaries are injected as compile definitions by CMake.
#include <gtest/gtest.h>

#ifdef _WIN32
#error "this suite forks a daemon and decodes POSIX wait statuses"
#endif
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fedcons/core/dag.h"
#include "fedcons/core/io.h"
#include "fedcons/core/task_system.h"
#include "fedcons/serve/client.h"
#include "fedcons/serve/protocol.h"
#include "fedcons/serve/server.h"
#include "fedcons/util/check.h"
#include "test_json.h"

namespace fedcons {
namespace {

const std::string kServeBin = FEDCONS_SERVE_BIN;
const std::string kTopBin = FEDCONS_TOP_BIN;

/// A daemon child process bound to a per-test unix socket. The destructor
/// SIGTERMs and reaps it, so a failing test cannot leak the process.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> extra_args = {}) {
    static int counter = 0;
    socket_path_ = ::testing::TempDir() + "/serve_obs_" +
                   std::to_string(::getpid()) + "_" +
                   std::to_string(counter++) + ".sock";
    std::vector<std::string> args = {kServeBin, "--socket=" + socket_path_};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    pid_ = ::fork();
    FEDCONS_EXPECTS_MSG(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
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

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

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

/// Run a shell command, return its exit code (-1 on abnormal termination).
int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---- stats schema ----------------------------------------------------------

TEST(ServeObsTest, StatsCarriesSchemaVersionClocksAndHistograms) {
  Daemon daemon;
  serve::ServeClient client = daemon.connect();
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto pong = client.call(make_request(serve::ServeOp::kPing, seq));
    ASSERT_EQ(pong.status, serve::ServeStatus::kOk) << pong.error;
  }

  const serve::ServeResponse stats =
      client.call(make_request(serve::ServeOp::kStats, 4));
  ASSERT_EQ(stats.status, serve::ServeStatus::kOk) << stats.error;
  const auto doc = testjson::parse(stats.raw);

  ASSERT_TRUE(doc->has("schema_version"));
  EXPECT_EQ(doc->at("schema_version").number,
            static_cast<double>(serve::kStatsSchemaVersion));
  ASSERT_TRUE(doc->has("uptime_us"));
  EXPECT_GT(doc->at("uptime_us").number, 0.0);
  ASSERT_TRUE(doc->has("snapshot_monotonic_us"));
  EXPECT_GT(doc->at("snapshot_monotonic_us").number, 0.0);
  ASSERT_TRUE(doc->has("queue_depth"));
  EXPECT_GE(doc->at("queue_depth").number, 0.0);
  // No tracing configured: nothing may be sampled.
  ASSERT_TRUE(doc->has("requests_sampled"));
  EXPECT_EQ(doc->at("requests_sampled").number, 0.0);
  EXPECT_GE(doc->at("requests_enqueued").number, 3.0);

  for (const char* hist : {"latency_us", "admit_latency_us",
                           "release_latency_us", "batch_size"}) {
    ASSERT_TRUE(doc->has(hist)) << hist;
    const auto& h = doc->at(hist);
    ASSERT_TRUE(h.is_object()) << hist;
    for (const char* key : {"count", "sum", "min", "max", "buckets"}) {
      EXPECT_TRUE(h.has(key)) << hist << "." << key;
    }
    EXPECT_TRUE(h.at("buckets").is_string()) << hist;
  }
  // Three pings were handled; the all-ops latency histogram saw them. The
  // admit/release histograms must not have (pings are neither class).
  EXPECT_GE(doc->at("latency_us").at("count").number, 3.0);
  EXPECT_EQ(doc->at("admit_latency_us").at("count").number, 0.0);
  EXPECT_EQ(doc->at("release_latency_us").at("count").number, 0.0);
}

// ---- stage echo ------------------------------------------------------------

TEST(ServeObsTest, StageEchoOnlyOnRequestsThatAskForIt) {
  Daemon daemon;
  serve::ServeClient client = daemon.connect();

  serve::ServeRequest staged = make_request(serve::ServeOp::kPing, 1);
  staged.echo_stages = true;
  const serve::ServeResponse with = client.call(staged);
  ASSERT_EQ(with.status, serve::ServeStatus::kOk) << with.error;
  EXPECT_TRUE(with.has_stages);
  EXPECT_NE(with.raw.find("\"stage_queue_us\""), std::string::npos);
  EXPECT_NE(with.raw.find("\"stage_batch_us\""), std::string::npos);
  EXPECT_NE(with.raw.find("\"stage_handle_us\""), std::string::npos);

  const serve::ServeResponse without =
      client.call(make_request(serve::ServeOp::kPing, 2));
  ASSERT_EQ(without.status, serve::ServeStatus::kOk) << without.error;
  EXPECT_FALSE(without.has_stages);
  EXPECT_EQ(without.raw.find("\"stage_queue_us\""), std::string::npos);
}

// ---- prometheus export -----------------------------------------------------

TEST(ServeObsTest, StatsFormatPrometheusCarriesExpositionText) {
  Daemon daemon;
  serve::ServeClient client = daemon.connect();
  const auto pong = client.call(make_request(serve::ServeOp::kPing, 1));
  ASSERT_EQ(pong.status, serve::ServeStatus::kOk) << pong.error;

  serve::ServeRequest req = make_request(serve::ServeOp::kStats, 2);
  req.prometheus = true;
  const serve::ServeResponse resp = client.call(req);
  ASSERT_EQ(resp.status, serve::ServeStatus::kOk) << resp.error;
  const auto doc = testjson::parse(resp.raw);
  EXPECT_EQ(doc->at("schema_version").number,
            static_cast<double>(serve::kStatsSchemaVersion));
  ASSERT_TRUE(doc->has("prometheus"));
  const std::string text = doc->at("prometheus").string;
  EXPECT_EQ(text.rfind("# HELP fedcons_serve_uptime_us", 0), 0u);
  EXPECT_NE(text.find("# TYPE fedcons_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find(
                "# TYPE fedcons_serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("fedcons_serve_request_latency_us_bucket{op=\"all\""),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

// ---- fedcons_top -----------------------------------------------------------

TEST(ServeObsTest, TopRendersLifetimeThenIntervalFrames) {
  Daemon daemon;
  {
    serve::ServeClient client = daemon.connect();
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      const auto pong = client.call(make_request(serve::ServeOp::kPing, seq));
      ASSERT_EQ(pong.status, serve::ServeStatus::kOk) << pong.error;
    }
  }
  const std::string out_path = ::testing::TempDir() + "/top_" +
                               std::to_string(::getpid()) + ".txt";
  const int rc = run_command(kTopBin + " --socket=" + daemon.socket_path() +
                             " --interval-ms=40 --iterations=3 --plain > " +
                             out_path + " 2>&1");
  EXPECT_EQ(rc, 0);
  const std::string text = read_file(out_path);
  // First frame is the lifetime view; the two that follow are windows.
  EXPECT_NE(text.find("window lifetime"), std::string::npos);
  std::size_t frames = 0;
  for (std::size_t pos = text.find("fedcons_top  uptime");
       pos != std::string::npos;
       pos = text.find("fedcons_top  uptime", pos + 1)) {
    ++frames;
  }
  EXPECT_EQ(frames, 3u);
  for (const char* label : {"qps", "shed", "batches", "queue depth",
                            "batch size p99", "dispatch busy", "p99 us"}) {
    EXPECT_NE(text.find(label), std::string::npos) << label;
  }
  // --plain must not emit ANSI control sequences.
  EXPECT_EQ(text.find('\x1b'), std::string::npos);
  std::remove(out_path.c_str());
}

// ---- trace chain -----------------------------------------------------------

DagTask make_task(long long vol, long long deadline, long long period,
                  const std::string& name) {
  return DagTask(DagBuilder{}.vertex(vol).build(), deadline, period, name);
}

TEST(ServeObsTest, TraceChainLinksAllStagesUnderOneTraceId) {
  const std::string trace_path = ::testing::TempDir() + "/trace_" +
                                 std::to_string(::getpid()) + ".json";
  std::remove(trace_path.c_str());
  std::uint64_t issued = 0;
  {
    Daemon daemon({"--trace-out=" + trace_path, "--trace-sample=1"});
    serve::ServeClient client = daemon.connect();

    serve::ServeRequest open = make_request(serve::ServeOp::kOpen, ++issued);
    open.m = 4;
    const serve::ServeResponse opened = client.call(open);
    ASSERT_EQ(opened.status, serve::ServeStatus::kOk) << opened.error;

    serve::ServeRequest admit = make_request(serve::ServeOp::kAdmit, ++issued);
    admit.session = opened.session;
    admit.system = serialize_task_system(
        TaskSystem({make_task(10, 90, 100, "traced")}));
    const serve::ServeResponse verdict = client.call(admit);
    ASSERT_EQ(verdict.status, serve::ServeStatus::kOk) << verdict.error;

    const auto pong = client.call(make_request(serve::ServeOp::kPing, ++issued));
    ASSERT_EQ(pong.status, serve::ServeStatus::kOk) << pong.error;

    // At sample=1 every enqueued request so far is sampled.
    const serve::ServeResponse stats =
        client.call(make_request(serve::ServeOp::kStats, ++issued));
    ASSERT_EQ(stats.status, serve::ServeStatus::kOk) << stats.error;
    const auto stats_doc = testjson::parse(stats.raw);
    EXPECT_GE(stats_doc->at("requests_sampled").number,
              static_cast<double>(issued - 1));

    const serve::ServeResponse bye =
        client.call(make_request(serve::ServeOp::kShutdown, ++issued));
    EXPECT_EQ(bye.status, serve::ServeStatus::kOk);
    EXPECT_EQ(daemon.wait_exit(), 0);  // trace file flushed on clean exit
  }

  const auto doc = testjson::parse(read_file(trace_path));
  ASSERT_TRUE(doc->has("traceEvents"));
  // Group serve-category spans by trace_id; record each stage's start time.
  struct Chain {
    std::map<std::string, double> stage_ts;
  };
  std::map<std::uint64_t, Chain> chains;
  for (const auto& ev : doc->at("traceEvents").array) {
    if (!ev->has("cat") || ev->at("cat").string != "serve") continue;
    ASSERT_TRUE(ev->has("args"));
    ASSERT_TRUE(ev->at("args").has("trace_id"));
    const auto id =
        static_cast<std::uint64_t>(ev->at("args").at("trace_id").number);
    chains[id].stage_ts[ev->at("name").string] = ev->at("ts").number;
  }
  EXPECT_GE(chains.size(), issued - 1)
      << "every request before shutdown was sampled";

  std::size_t complete = 0;
  for (const auto& [id, chain] : chains) {
    const auto& ts = chain.stage_ts;
    EXPECT_EQ(ts.count("batch"), 0u) << "trace_id " << id;
    if (!ts.count("queue") || !ts.count("handle") || !ts.count("write")) {
      continue;
    }
    ++complete;
    // The pipeline order is physical: each stage starts no earlier than its
    // predecessor.
    EXPECT_LE(ts.at("queue"), ts.at("handle")) << "trace_id " << id;
    EXPECT_LE(ts.at("handle"), ts.at("write")) << "trace_id " << id;
  }
  EXPECT_GE(complete, issued - 1)
      << "each pre-shutdown request must carry the full 3-span chain";
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace fedcons
