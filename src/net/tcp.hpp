// Minimal RAII TCP wrapper (POSIX sockets), used by the migration server
// and client. Messages are framed as a u32 little-endian length prefix
// followed by the payload, with a hard cap so a hostile peer cannot make
// the server allocate unbounded memory.
//
// Every blocking operation can carry a deadline: connect() resolves the
// host through getaddrinfo on a helper thread (bounded wait) and completes
// the three-way handshake through a non-blocking connect + poll, and
// send/recv honour per-call timeouts via SO_SNDTIMEO/SO_RCVTIMEO. Deadline
// expiry surfaces as NetTimeout (a NetError subclass) so retry policies
// can distinguish "slow" from "refused".
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mojave::net {

inline constexpr std::size_t kMaxFrameBytes = 256u << 20;  // 256 MiB

/// Per-stream deadlines in seconds; <= 0 means block forever (legacy
/// behaviour, still the default for callers that manage their own pacing).
struct Deadlines {
  double connect_seconds = 0;  ///< resolve + TCP handshake budget
  double io_seconds = 0;       ///< per send/recv syscall budget
};

class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  TcpStream& operator=(TcpStream&& o) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connect to host:port (numeric or resolvable name). Throws NetError on
  /// failure and NetTimeout when a positive connect deadline expires; the
  /// socket fd is closed on every error path.
  [[nodiscard]] static TcpStream connect(const std::string& host,
                                         std::uint16_t port,
                                         const Deadlines& deadlines = {});

  /// Begin a non-blocking connect for event-loop callers: the returned
  /// stream's fd is O_NONBLOCK with the TCP handshake (usually) still in
  /// flight. Register it for writability with a Poller and check
  /// connect_finished() when it fires. Names resolve synchronously.
  [[nodiscard]] static TcpStream connect_begin(const std::string& host,
                                               std::uint16_t port);
  /// After a connect_begin() fd polls writable: true when the handshake
  /// succeeded, throws NetError when it failed. The fd stays O_NONBLOCK.
  [[nodiscard]] bool connect_finished();

  /// Put the fd in non-blocking mode (event-loop ownership).
  void set_nonblocking();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Raw descriptor, for relays that operate below the framing layer
  /// (WireChaos). Ownership stays with the stream.
  [[nodiscard]] int fd() const { return fd_; }

  /// Bound every subsequent send/recv syscall; <= 0 restores blocking.
  void set_io_deadline(double seconds);

  /// Send one length-prefixed frame.
  void send_frame(std::span<const std::byte> payload);
  /// Receive one frame; empty optional on orderly peer close.
  [[nodiscard]] std::optional<std::vector<std::byte>> recv_frame();

  /// Half-close both directions without releasing the fd: a reader blocked
  /// in recv_frame() on another thread observes an orderly close and
  /// returns. close() would recycle the fd number under that thread;
  /// shutdown() keeps it reserved until the owner joins and destroys the
  /// stream (mirrors TcpListener::shutdown()).
  void shutdown();

  void close();

 private:
  void send_all(const std::byte* data, std::size_t n);
  [[nodiscard]] bool recv_all(std::byte* data, std::size_t n);

  int fd_ = -1;
};

class TcpListener {
 public:
  /// Bind and listen on 127.0.0.1:port; port 0 picks a free port.
  explicit TcpListener(std::uint16_t port);
  /// Bind a specific address: a numeric IPv4 address, a resolvable name,
  /// or "0.0.0.0" for all interfaces (required for multi-host operation —
  /// the loopback-only ctor above cannot accept remote peers).
  TcpListener(const std::string& bind_host, std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Raw listening descriptor, for event loops that register it with a
  /// Poller. Ownership stays with the listener.
  [[nodiscard]] int fd() const { return fd_.load(); }

  /// Accept one connection; empty optional if the listener was shut down.
  [[nodiscard]] std::optional<TcpStream> accept();

  /// Non-blocking accept for event-loop callers (set_nonblocking first):
  /// empty optional when no connection is pending or the listener is shut
  /// down. Never blocks.
  [[nodiscard]] std::optional<TcpStream> try_accept();

  /// Put the listening fd in non-blocking mode (event-loop ownership).
  void set_nonblocking();

  /// Unblock any accept() and stop taking connections. The fd itself is
  /// closed by the destructor, after the owner has joined its accept
  /// thread — closing here could recycle the fd number under a thread
  /// still blocked in ::accept on it.
  void shutdown();

 private:
  std::atomic<int> fd_{-1};
  std::atomic<bool> shut_{false};
  std::uint16_t port_ = 0;
};

}  // namespace mojave::net
