// Blocking client for the fedcons_serve protocol.
//
// One ServeClient is one socket: frames out, frames in, with the same
// FrameDecoder the server uses. The API is deliberately split into
// send/recv halves rather than only call() — the benchmark driver keeps
// many requests in flight per connection (deep pipelining is how a single
// box amortizes syscalls into >100k verdicts/sec), and tests batch many
// frames into one write to provoke backpressure. call() is the convenience
// for strictly serial use. Not thread-safe; one client per thread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fedcons/serve/protocol.h"

namespace fedcons {
namespace serve {

class ServeClient {
 public:
  /// Connect to a unix-socket server, retrying (the daemon may still be
  /// binding) up to timeout_ms. Throws ContractViolation on failure.
  [[nodiscard]] static ServeClient connect_unix(const std::string& path,
                                                int timeout_ms = 5000);
  /// Connect to a TCP server on 127.0.0.1.
  [[nodiscard]] static ServeClient connect_tcp(int port,
                                               int timeout_ms = 5000);

  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  /// Frame + write one request.
  void send(const ServeRequest& req);
  /// Write pre-framed bytes verbatim (pipelined batches).
  void send_bytes(std::string_view bytes);
  /// Block for the next response frame. Throws ContractViolation when the
  /// server closes the connection, ParseError on a malformed response.
  [[nodiscard]] ServeResponse recv();
  /// Pop a response already buffered by an earlier read, without touching
  /// the socket. A pipelining client drains these after each blocking
  /// recv() so one syscall's worth of frames is processed as one batch.
  [[nodiscard]] bool try_recv(ServeResponse& out);
  /// send + recv (serial convenience).
  [[nodiscard]] ServeResponse call(const ServeRequest& req);

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  explicit ServeClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace serve
}  // namespace fedcons
