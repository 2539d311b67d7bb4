// fedcons_serve — the admission-control daemon.
//
// Usage:
//   fedcons_serve --socket=PATH | --port=N [--max-frame-bytes=N]
//                 [--trace-out=FILE] [--trace-sample=N]
//                 [--stats-interval-ms=N] [--stats-ring=N]
//
// Serves the serve/protocol.h length-prefixed newline-JSON protocol:
// clients open AdmissionSessions, register task-system content, and stream
// admit/release/swap/query events; every accepted request gets exactly one
// response. --socket binds an AF_UNIX listener at PATH; --port binds TCP on
// 127.0.0.1 (0 picks a free port). Exactly one of the two must be given.
// Each connection gets its own thread, which handles its requests in the
// order it reads them; a client that stops reading blocks only its own
// connection (socket flow control is the backpressure).
//
// Once listening the daemon prints a single readiness line to stdout —
//
//   fedcons_serve listening unix=PATH    (or tcp=PORT)
//
// — and serves until SIGTERM/SIGINT or a protocol "shutdown" request, then
// drains: every request already read is answered before exit, new
// connections are refused. On exit it prints the stats snapshot (server
// counters + latency/batch histograms) as one JSON line to stdout.
//
// Observability (all optional; verdicts and default responses are
// bit-identical with these on or off):
//   --trace-out=FILE enables span tracing and writes a Chrome trace-event
//     JSON on exit (open in Perfetto / chrome://tracing). Request-scoped
//     spans are SAMPLED: every --trace-sample'th request (default 256 once
//     --trace-out is given) records its queue -> handle -> write chain
//     under one trace id.
//   --stats-interval-ms (default 250; 0 disables) sets the cadence of the
//     stats_series snapshot ring; --stats-ring (default 256) its capacity.
//
// Unknown or malformed flags exit 2 with usage. Exit 0 on a clean drain.
#include <csignal>
#include <fstream>
#include <iostream>
#include <string_view>

#include "fedcons/obs/span_tracer.h"
#include "fedcons/serve/server.h"
#include "fedcons/util/flags.h"

using namespace fedcons;

namespace {

serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

int usage() {
  std::cerr
      << "usage: fedcons_serve --socket=PATH | --port=N\n"
         "                     [--max-frame-bytes=N]\n"
         "                     [--trace-out=FILE] [--trace-sample=N]\n"
         "                     [--stats-interval-ms=N] [--stats-ring=N]\n";
  return 2;
}

// Writes the Chrome trace on every exit path once --trace-out is set.
struct TraceDump {
  std::string path;
  ~TraceDump() {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "fedcons_serve: cannot write trace to '" << path << "'\n";
      return;
    }
    obs::write_chrome_trace(out);
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    static constexpr std::string_view kAllowed[] = {
        "socket",       "port",              "max-frame-bytes", "trace-out",
        "trace-sample", "stats-interval-ms", "stats-ring"};
    const auto unknown = flags.unknown_keys(kAllowed);
    if (!unknown.empty() || !flags.positional().empty()) {
      for (const auto& key : unknown) {
        std::cerr << "fedcons_serve: unknown flag --" << key << "\n";
      }
      for (const auto& arg : flags.positional()) {
        std::cerr << "fedcons_serve: stray argument '" << arg << "'\n";
      }
      return usage();
    }
    const bool has_socket = flags.has("socket");
    if (has_socket == flags.has("port")) {
      std::cerr << "fedcons_serve: exactly one of --socket/--port required\n";
      return usage();
    }

    serve::ServerConfig config;
    config.unix_path = flags.get_string("socket", "");
    config.tcp_port = static_cast<int>(flags.get_int("port", 0));
    config.max_frame_bytes = static_cast<std::size_t>(
        flags.get_int("max-frame-bytes",
                      static_cast<std::int64_t>(serve::kDefaultMaxFrameBytes)));
    TraceDump trace_dump;
    trace_dump.path = flags.get_string("trace-out", "");
    // Sampling defaults on with the trace sink: 1-in-256 keeps the span
    // buffers bounded under load while still catching requests steadily.
    config.trace_sample = static_cast<int>(
        flags.get_int("trace-sample", trace_dump.path.empty() ? 0 : 256));
    config.stats_interval_ms =
        static_cast<int>(flags.get_int("stats-interval-ms", 250));
    config.stats_ring = static_cast<int>(flags.get_int("stats-ring", 256));
    if (config.trace_sample < 0 || config.stats_interval_ms < 0 ||
        config.stats_ring < 1) {
      std::cerr << "fedcons_serve: flag values out of range\n";
      return usage();
    }
    if (!trace_dump.path.empty()) obs::set_tracing_enabled(true);

    serve::Server server(config);
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    server.start();
    if (has_socket) {
      std::cout << "fedcons_serve listening unix=" << config.unix_path
                << std::endl;
    } else {
      std::cout << "fedcons_serve listening tcp=" << server.port()
                << std::endl;
    }
    server.wait();
    std::cout << server.stats_snapshot().to_json() << std::endl;
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fedcons_serve: " << e.what() << "\n";
    return 2;
  }
}
