// fedcons_top — live terminal monitor for a running fedcons_serve daemon.
//
// Usage:
//   fedcons_top --socket=PATH | --port=N
//               [--interval-ms=N] [--iterations=N] [--plain]
//
// Polls the daemon's "stats" op on one connection and renders a refreshing
// dashboard: request/shed rates, client-visible latency percentiles by op
// class, queue depth, batch-size distribution, and per-stage busy fractions.
// Everything after the first frame is an INTERVAL view: the tool
// reconstructs the server's log2 histograms from the scrape's raw bucket
// counts (obs::parse_histogram_buckets + Histogram::from_state) and
// differences consecutive snapshots with Histogram::delta_since, so the
// percentiles describe the last interval's requests — not the lifetime
// average a long-running daemon's cumulative histogram converges to.
//
// --interval-ms (default 1000) is the poll cadence. --iterations=N exits
// after N frames (0 = run until the daemon goes away or SIGINT). --plain
// suppresses the ANSI clear-screen between frames — one appended dashboard
// block per poll, for logs, pipes, and tests.
//
// The first frame shows lifetime values (there is no earlier snapshot to
// difference against); every later frame is the delta. Rates divide by the
// server's own snapshot_monotonic_us delta, not the client's sleep time, so
// a slow poll never inflates a rate. Exit 0 on a clean finish, 1 when the
// daemon disappears mid-run, 2 on usage errors (unknown or malformed flags,
// --port outside [1, 65535], --interval-ms below 1, --iterations below 0).
#include <chrono>
#include <iostream>
#include <string_view>
#include <thread>

#include "fedcons/obs/metrics.h"
#include "fedcons/serve/client.h"
#include "fedcons/util/check.h"
#include "fedcons/util/flags.h"
#include "fedcons/util/mini_json.h"
#include "fedcons/util/table.h"

using namespace fedcons;

namespace {

int usage() {
  std::cerr << "usage: fedcons_top --socket=PATH | --port=N\n"
               "                   [--interval-ms=N] [--iterations=N]\n"
               "                   [--plain]\n";
  return 2;
}

/// One parsed stats snapshot, histograms reconstructed from bucket counts.
struct Snapshot {
  std::uint64_t uptime_us = 0;
  std::uint64_t monotonic_us = 0;
  std::uint64_t requests_enqueued = 0;
  std::uint64_t requests_shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_high_watermark = 0;
  std::uint64_t reader_busy_us = 0;
  std::uint64_t handle_us = 0;
  std::uint64_t write_us = 0;
  std::uint64_t dispatch_busy_us = 0;
  obs::Histogram latency;
  obs::Histogram admit_latency;
  obs::Histogram release_latency;
  obs::Histogram batch_size;
};

obs::Histogram parse_histogram(
    const std::map<std::string, std::string>& fields,
    const std::string& name) {
  return obs::Histogram::from_state(
      obs::parse_histogram_buckets(fields.at(name + ".buckets")),
      mini_json_uint(fields.at(name + ".count")),
      mini_json_uint(fields.at(name + ".sum")),
      mini_json_uint(fields.at(name + ".min")),
      mini_json_uint(fields.at(name + ".max")));
}

Snapshot fetch(serve::ServeClient& client, std::uint64_t seq) {
  serve::ServeRequest req;
  req.op = serve::ServeOp::kStats;
  req.seq = seq;
  const serve::ServeResponse resp = client.call(req);
  FEDCONS_EXPECTS_MSG(resp.status == serve::ServeStatus::kOk,
                      "fedcons_top: stats failed: " + resp.error);
  const auto fields = parse_mini_json(resp.raw);
  Snapshot s;
  s.uptime_us = mini_json_uint(fields.at("uptime_us"));
  s.monotonic_us = mini_json_uint(fields.at("snapshot_monotonic_us"));
  s.requests_enqueued = mini_json_uint(fields.at("requests_enqueued"));
  s.requests_shed = mini_json_uint(fields.at("requests_shed"));
  s.batches = mini_json_uint(fields.at("batches"));
  s.queue_depth = mini_json_uint(fields.at("queue_depth"));
  s.queue_high_watermark =
      mini_json_uint(fields.at("queue_high_watermark"));
  s.reader_busy_us = mini_json_uint(fields.at("reader_busy_us"));
  s.handle_us = mini_json_uint(fields.at("handle_us"));
  s.write_us = mini_json_uint(fields.at("write_us"));
  s.dispatch_busy_us = mini_json_uint(fields.at("dispatch_busy_us"));
  s.latency = parse_histogram(fields, "latency_us");
  s.admit_latency = parse_histogram(fields, "admit_latency_us");
  s.release_latency = parse_histogram(fields, "release_latency_us");
  s.batch_size = parse_histogram(fields, "batch_size");
  return s;
}

std::string fmt_rate(std::uint64_t delta, double dt_s) {
  return dt_s > 0 ? fmt_double(static_cast<double>(delta) / dt_s, 1) : "0";
}

/// Busy fraction of the interval: a stage's busy-us delta over wall time.
std::string fmt_busy(std::uint64_t delta_us, double dt_s) {
  return dt_s > 0
             ? fmt_double(static_cast<double>(delta_us) / (dt_s * 1e6), 3)
             : "0";
}

void latency_row(Table& t, const char* label, const obs::Histogram& h) {
  t.add_row({label, fmt_int(static_cast<long long>(h.count())),
             fmt_double(h.mean(), 1),
             fmt_int(static_cast<long long>(h.percentile(50))),
             fmt_int(static_cast<long long>(h.percentile(99)))});
}

void render(const Snapshot& now, const Snapshot* prev, bool plain) {
  if (!plain) std::cout << "\x1b[2J\x1b[H";  // clear + home
  const bool interval = prev != nullptr;
  const double dt_s =
      interval ? static_cast<double>(now.monotonic_us - prev->monotonic_us) /
                     1e6
               : static_cast<double>(now.uptime_us) / 1e6;
  const auto d = [&](std::uint64_t cur, std::uint64_t old) {
    return interval ? cur - old : cur;
  };
  std::cout << "fedcons_top  uptime "
            << fmt_double(static_cast<double>(now.uptime_us) / 1e6, 1)
            << "s  window "
            << (interval ? fmt_double(dt_s, 1) + "s" : std::string("lifetime"))
            << "\n";

  Table rates({"rate", "per s"});
  rates.add_row({"qps", fmt_rate(d(now.requests_enqueued,
                                   interval ? prev->requests_enqueued : 0),
                                 dt_s)});
  rates.add_row({"shed", fmt_rate(d(now.requests_shed,
                                    interval ? prev->requests_shed : 0),
                                  dt_s)});
  rates.add_row({"batches", fmt_rate(d(now.batches,
                                       interval ? prev->batches : 0),
                                     dt_s)});
  rates.print(std::cout);

  Table lat({"latency", "count", "mean us", "p50 us", "p99 us"});
  const obs::Histogram all =
      interval ? now.latency.delta_since(prev->latency) : now.latency;
  const obs::Histogram admit =
      interval ? now.admit_latency.delta_since(prev->admit_latency)
               : now.admit_latency;
  const obs::Histogram release =
      interval ? now.release_latency.delta_since(prev->release_latency)
               : now.release_latency;
  latency_row(lat, "all", all);
  latency_row(lat, "admit", admit);
  latency_row(lat, "release", release);
  lat.print(std::cout);

  const obs::Histogram batch =
      interval ? now.batch_size.delta_since(prev->batch_size)
               : now.batch_size;
  Table misc({"metric", "value"});
  misc.add_row({"queue depth", fmt_int(static_cast<long long>(
                                   now.queue_depth))});
  misc.add_row({"queue high watermark",
                fmt_int(static_cast<long long>(now.queue_high_watermark))});
  misc.add_row({"batch size p50",
                fmt_int(static_cast<long long>(batch.percentile(50)))});
  misc.add_row({"batch size p99",
                fmt_int(static_cast<long long>(batch.percentile(99)))});
  misc.add_row(
      {"reader busy",
       fmt_busy(d(now.reader_busy_us, interval ? prev->reader_busy_us : 0),
                dt_s)});
  misc.add_row({"handle busy",
                fmt_busy(d(now.handle_us, interval ? prev->handle_us : 0),
                         dt_s)});
  misc.add_row({"write busy",
                fmt_busy(d(now.write_us, interval ? prev->write_us : 0),
                         dt_s)});
  misc.add_row({"dispatch busy",
                fmt_busy(d(now.dispatch_busy_us,
                           interval ? prev->dispatch_busy_us : 0),
                         dt_s)});
  misc.print(std::cout);
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket;
  std::int64_t port = 0;
  std::chrono::milliseconds interval{};
  std::int64_t iterations = 0;
  bool plain = false;
  // Usage errors are decided here, apart from the run's own failures, so a
  // malformed flag exits 2 and never reads as a vanished daemon (exit 1).
  try {
    const Flags flags(argc, argv);
    static constexpr std::string_view kAllowed[] = {
        "socket", "port", "interval-ms", "iterations", "plain"};
    const auto unknown = flags.unknown_keys(kAllowed);
    if (!unknown.empty() || !flags.positional().empty()) {
      for (const auto& key : unknown) {
        std::cerr << "fedcons_top: unknown flag --" << key << "\n";
      }
      for (const auto& arg : flags.positional()) {
        std::cerr << "fedcons_top: stray argument '" << arg << "'\n";
      }
      return usage();
    }
    if (flags.has("socket") == flags.has("port")) {
      std::cerr << "fedcons_top: exactly one of --socket/--port required\n";
      return usage();
    }
    socket = flags.get_string("socket", "");
    port = flags.get_int("port", 0);
    interval = std::chrono::milliseconds(flags.get_int("interval-ms", 1000));
    iterations = flags.get_int("iterations", 0);
    plain = flags.get_bool("plain", false);
    if ((socket.empty() && (port < 1 || port > 65535)) ||
        interval.count() < 1 || iterations < 0) {
      std::cerr << "fedcons_top: flag values out of range\n";
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "fedcons_top: " << e.what() << "\n";
    return usage();
  }

  try {
    serve::ServeClient client =
        socket.empty()
            ? serve::ServeClient::connect_tcp(static_cast<int>(port))
            : serve::ServeClient::connect_unix(socket);
    Snapshot prev;
    bool have_prev = false;
    std::uint64_t seq = 0;
    for (std::int64_t frame = 0; iterations == 0 || frame < iterations;
         ++frame) {
      if (frame != 0) std::this_thread::sleep_for(interval);
      const Snapshot now = fetch(client, seq++);
      render(now, have_prev ? &prev : nullptr, plain);
      prev = now;
      have_prev = true;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fedcons_top: " << e.what() << "\n";
    return 1;
  }
}
