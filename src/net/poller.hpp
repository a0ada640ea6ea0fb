// Poller + FramedSocket: the non-blocking I/O core of the rank-dense
// agent runtime.
//
// Poller wraps epoll: every socket an event loop owns is registered once
// under a caller-chosen token, the loop sleeps in wait() (bounded by the
// next timer deadline), and wake() — an eventfd — unblocks it from any
// thread. One Poller replaces what used to be a blocking reader thread
// per connection plus an accept thread plus a heartbeat thread.
//
// FramedSocket is the u32-length-prefix framing of TcpStream rebuilt for
// non-blocking fds:
//
//  * reads are buffered: on_readable() drains whatever the kernel has and
//    extracts every complete frame, so a frame split across segments (or
//    a WireChaos relay fragmenting writes) reassembles incrementally;
//  * writes are queued, never blocking the loop: small frames coalesce
//    into a shared batch buffer (per peer, per flush tick — one syscall
//    where the thread-per-rank runtime made dozens), large payloads stay
//    in their own buffers and go out through the same writev() without a
//    copy (the zero-copy path for halo exchanges);
//  * partial writev()s keep a cursor; the owner re-arms EPOLLOUT while
//    want_write() and flushes again when the socket drains.
//
// Frame-level semantics (checksums, replay, idempotency) stay one layer
// up in dnode/wire.hpp — this file only moves bytes.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/tcp.hpp"

namespace mojave::net {

class Poller {
 public:
  struct Event {
    std::uint64_t token = 0;
    bool readable = false;
    bool writable = false;
    bool hup = false;   ///< peer closed (EPOLLHUP / EPOLLRDHUP)
    bool error = false; ///< EPOLLERR
  };

  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Register `fd` under `token`. The poller never owns the fd.
  void add(int fd, std::uint64_t token, bool want_read, bool want_write);
  /// Re-arm `fd` with a new interest set (token may change too).
  void modify(int fd, std::uint64_t token, bool want_read, bool want_write);
  /// Deregister. Safe to call for fds the kernel already dropped.
  void remove(int fd);

  /// Block up to timeout_ms (-1 = forever, 0 = poll) and append ready
  /// events to `out` (cleared first). Returns the number of events. A
  /// wake() consumes silently — wait() simply returns early.
  std::size_t wait(std::vector<Event>& out, int timeout_ms);

  /// Unblock a concurrent (or the next) wait(). Callable from any thread
  /// and from signal-free contexts; coalesces.
  void wake();

 private:
  int epfd_ = -1;
  int wakefd_ = -1;  ///< eventfd, registered under the reserved token
  std::vector<::epoll_event> events_;

  static constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};
};

/// Counters for the frame-coalescing write path (process-wide; the ratio
/// frames_out / flush_batches is the `coalesce_ratio` bench metric).
struct CoalesceStats {
  std::uint64_t frames_out = 0;      ///< frames queued
  std::uint64_t flush_batches = 0;   ///< writev syscalls that moved bytes
  std::uint64_t batched_frames = 0;  ///< small frames copied into a batch
  std::uint64_t zero_copy_frames = 0;  ///< large frames sent from their own buffer
  std::uint64_t partial_flushes = 0;   ///< writev returned short (EAGAIN path)
};

class FramedSocket {
 public:
  /// Frames with payloads at or above this many bytes skip the batch
  /// buffer and are written from their own storage (iovec entry).
  static constexpr std::size_t kZeroCopyThreshold = 2048;

  FramedSocket() = default;
  /// Takes ownership and puts the fd in non-blocking mode.
  explicit FramedSocket(TcpStream stream);

  [[nodiscard]] bool valid() const { return stream_.valid(); }
  [[nodiscard]] int fd() const { return stream_.fd(); }
  [[nodiscard]] TcpStream& stream() { return stream_; }

  /// Drain everything the kernel has buffered and append every complete
  /// frame to `frames`. Returns false when the connection is finished
  /// (orderly close, reset, or an over-limit frame) — the caller should
  /// deregister and drop the socket. Never blocks.
  [[nodiscard]] bool on_readable(std::vector<std::vector<std::byte>>& frames);

  /// Queue one frame for transmission. Small payloads are copied into the
  /// current coalescing batch; payloads >= kZeroCopyThreshold are moved
  /// into the queue and written in place via writev. Call flush() (or
  /// wait for writability) to move bytes.
  void queue_frame(std::span<const std::byte> payload);
  void queue_frame(std::vector<std::byte> payload);

  /// Push queued bytes into the socket with writev until EAGAIN or empty.
  /// Returns false on a fatal socket error (connection dead).
  [[nodiscard]] bool flush();

  [[nodiscard]] bool want_write() const { return !outq_.empty(); }
  [[nodiscard]] std::size_t pending_bytes() const { return pending_bytes_; }

  /// Half-close (wakes a peer blocked mid-frame); fd stays reserved.
  void shutdown() { stream_.shutdown(); }

  [[nodiscard]] static CoalesceStats stats_snapshot();

 private:
  /// One queued write: either a coalesced batch of small frames (header +
  /// payload, back to back) or a single zero-copy payload preceded by its
  /// 4-byte header buffer.
  struct OutBuf {
    std::vector<std::byte> bytes;
    std::size_t offset = 0;  ///< bytes already written (front buffer only)
  };

  void append_header(std::vector<std::byte>& buf, std::uint32_t n);

  TcpStream stream_;
  std::vector<std::byte> inbuf_;
  std::deque<OutBuf> outq_;
  std::size_t pending_bytes_ = 0;
  /// True while outq_.back() is an open coalescing batch small frames may
  /// still append to (closed by a zero-copy frame or a flush).
  bool batch_open_ = false;
};

}  // namespace mojave::net
