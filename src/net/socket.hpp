// POSIX socket transport for the session daemon: endpoints, listener,
// and an iostream adapter over a connected socket.
//
// Two endpoint flavors, parsed from one textual spec:
//   unix:<path>            unix-domain stream socket at <path>
//   tcp:<host>:<port>      IPv4 TCP (host = dotted quad or "localhost";
//                          port 0 binds an ephemeral port, resolved after
//                          listen() — read it back from bound_endpoint())
//
// SocketStream wraps a connected fd in a std::iostream with an optional
// receive timeout (the daemon's idle-connection reaper) and a thread-safe
// shutdown() that unblocks a reader mid-getline — the mechanism the daemon
// uses to drain connections on SIGTERM. Writes use MSG_NOSIGNAL, so a
// vanished peer surfaces as badbit, never SIGPIPE.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <streambuf>
#include <string>

namespace nw::net {

/// A parsed listen/connect address.
struct Endpoint {
  enum class Kind : std::uint8_t { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;             ///< unix: filesystem path of the socket
  std::string host;             ///< tcp: dotted quad or "localhost"
  int port = 0;                 ///< tcp: port (0 = ephemeral when listening)

  /// Round-trips through parse_endpoint: "unix:<path>" / "tcp:<host>:<port>".
  [[nodiscard]] std::string to_string() const;
};

/// Parse "unix:<path>" or "tcp:<host>:<port>"; throws std::invalid_argument
/// naming the defect (unknown scheme, empty path, bad port, ...).
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec);

/// Listening socket bound to an Endpoint. Unix sockets unlink a stale file
/// of the same name before binding and remove theirs on close.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen; throws std::runtime_error on any socket failure. For
  /// tcp port 0 the kernel-assigned port is resolved into bound_endpoint().
  void open(const Endpoint& endpoint, int backlog = 64);

  /// Wait up to timeout_ms for one connection; returns the connected fd or
  /// -1 on timeout (the caller's chance to poll its stop flag). Throws on
  /// hard accept errors other than the benign transient ones.
  [[nodiscard]] int accept(int timeout_ms);

  [[nodiscard]] const Endpoint& bound_endpoint() const noexcept { return bound_; }

  void close();

 private:
  int fd_ = -1;
  Endpoint bound_;
  bool unlink_on_close_ = false;
};

/// Connect to an endpoint; returns the connected fd. Throws
/// std::runtime_error (with errno text) when the peer is not there.
[[nodiscard]] int connect_endpoint(const Endpoint& endpoint);

/// std::streambuf over a connected socket fd: buffered both ways, receive
/// timeout via poll, writes complete or set badbit. Reading after the
/// timeout expires looks like EOF; timed_out() disambiguates.
class FdStreambuf final : public std::streambuf {
 public:
  /// Takes ownership of fd. recv_timeout_ms <= 0 blocks forever.
  explicit FdStreambuf(int fd, int recv_timeout_ms = 0);
  ~FdStreambuf() override;
  FdStreambuf(const FdStreambuf&) = delete;
  FdStreambuf& operator=(const FdStreambuf&) = delete;

  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }

  /// Half/full shutdown of the underlying socket; safe from another thread
  /// while a reader blocks in underflow (it observes EOF).
  void shutdown_both() noexcept;

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  [[nodiscard]] bool flush_out();
  [[nodiscard]] bool send_all(const char* data, std::size_t n);

  static constexpr std::size_t kBufSize = 1 << 16;

  int fd_ = -1;
  int recv_timeout_ms_ = 0;
  bool timed_out_ = false;
  std::unique_ptr<char[]> in_;
  std::unique_ptr<char[]> out_;
};

/// iostream over a connected socket. One SocketStream per connection; the
/// daemon serializes concurrent writers (worker responses vs reader-side
/// rejects) with its own per-connection mutex.
class SocketStream final : public std::iostream {
 public:
  explicit SocketStream(int fd, int recv_timeout_ms = 0)
      : std::iostream(nullptr), buf_(fd, recv_timeout_ms) {
    rdbuf(&buf_);
  }

  [[nodiscard]] bool timed_out() const noexcept { return buf_.timed_out(); }
  void shutdown_both() noexcept { buf_.shutdown_both(); }

 private:
  FdStreambuf buf_;
};

}  // namespace nw::net
