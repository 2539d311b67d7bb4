// fedcons_serve — the admission-control daemon.
//
// Usage:
//   fedcons_serve --socket=PATH | --port=N [--max-frame-bytes=N]
//                 [--trace-out=FILE] [--trace-sample=N]
//
// Serves the serve/protocol.h length-prefixed newline-JSON protocol:
// clients open AdmissionSessions, register task-system content, and stream
// admit/release/swap/query events; every accepted request gets exactly one
// response. --socket binds an AF_UNIX listener at PATH; --port binds TCP on
// 127.0.0.1 (0 picks a free port). Exactly one of the two must be given.
// --max-frame-bytes caps one inbound frame (default 1 MiB).
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
//
// Unknown or malformed flags, and values out of range (--port outside
// [0, 65535], --max-frame-bytes below 1, --trace-sample outside
// [0, INT_MAX]), exit 2. Exit 0 on a clean drain.
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
         "                     [--trace-out=FILE] [--trace-sample=N]\n";
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
        "socket", "port", "max-frame-bytes", "trace-out", "trace-sample"};
    const auto errors = flags.usage_errors(kAllowed);
    for (const auto& e : errors) std::cerr << "fedcons_serve: " << e << "\n";
    if (!errors.empty()) return usage();
    const bool has_socket = flags.has("socket");
    if (has_socket == flags.has("port")) {
      std::cerr << "fedcons_serve: exactly one of --socket/--port required\n";
      return usage();
    }

    serve::ServerConfig config;
    config.unix_path = flags.get_string("socket", "");
    config.tcp_port = flags.get_int("port", 0, 0, 65535);
    config.max_frame_bytes =
        flags.get_int("max-frame-bytes", serve::kDefaultMaxFrameBytes, 1);
    const std::string trace_out = flags.get_string("trace-out", "");
    // Sampling defaults on with the trace sink: 1-in-256 keeps the span
    // buffers bounded under load while still catching requests steadily.
    config.trace_sample =
        flags.get_int("trace-sample", trace_out.empty() ? 0 : 256, 0);
    TraceDump trace_dump;
    trace_dump.path = trace_out;
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
