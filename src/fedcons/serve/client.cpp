#include "fedcons/serve/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "fedcons/util/check.h"

namespace fedcons {
namespace serve {

namespace {

/// Retry a connect thunk until it yields a socket or the deadline passes;
/// covers the window between daemon spawn and listen().
int connect_with_retry(int timeout_ms, int (*attempt)(const void*),
                       const void* ctx) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = attempt(ctx);
    if (fd >= 0) return fd;
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

ServeClient ServeClient::connect_unix(const std::string& path,
                                      int timeout_ms) {
  const auto attempt = [](const void* ctx) -> int {
    const auto& p = *static_cast<const std::string*>(ctx);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (p.size() >= sizeof(addr.sun_path)) return -1;
    std::memcpy(addr.sun_path, p.c_str(), p.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    return -1;
  };
  const int fd = connect_with_retry(timeout_ms, attempt, &path);
  FEDCONS_EXPECTS_MSG(fd >= 0, "serve client: cannot connect to " + path);
  return ServeClient(fd);
}

ServeClient ServeClient::connect_tcp(int port, int timeout_ms) {
  const auto attempt = [](const void* ctx) -> int {
    const int port = *static_cast<const int*>(ctx);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    return -1;
  };
  const int fd = connect_with_retry(timeout_ms, attempt, &port);
  FEDCONS_EXPECTS_MSG(
      fd >= 0, "serve client: cannot connect to 127.0.0.1:" +
                   std::to_string(port));
  return ServeClient(fd);
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
  }
  return *this;
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServeClient::send(const ServeRequest& req) {
  send_bytes(encode_frame(encode_serve_request(req)));
}

void ServeClient::send_bytes(std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    FEDCONS_EXPECTS_MSG(n > 0, "serve client: send failed: " +
                                   std::string(std::strerror(errno)));
    off += static_cast<std::size_t>(n);
  }
}

bool ServeClient::try_recv(ServeResponse& out) {
  std::string payload;
  if (!decoder_.next(payload)) return false;
  out = parse_serve_response(payload);
  return true;
}

ServeResponse ServeClient::recv() {
  std::string payload;
  while (!decoder_.next(payload)) {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    FEDCONS_EXPECTS_MSG(n > 0,
                        "serve client: connection closed by server");
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
  return parse_serve_response(payload);
}

ServeResponse ServeClient::call(const ServeRequest& req) {
  send(req);
  return recv();
}

}  // namespace serve
}  // namespace fedcons
