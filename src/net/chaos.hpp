// WireChaos: a byte-level TCP fault injector for loopback tests.
//
// Sits transparently between two peers of any full-duplex protocol (the
// dnode agent wire, where both ends push frames at will, or the migration
// handshake) and injects the faults a real WAN produces but loopback
// never does. Faults below the framing layer: latency, fragmented writes,
// a bandwidth cap, connections reset mid-frame. Faults on whole frames
// (they parse the u32-LE length prefix TcpStream and FramedSocket write):
// reordering, and frame drops that cut the connection — swallowed
// requests, or lost acknowledgements when the dropped frame is a reply
// the server sent *after* it committed. All randomness comes from a
// seeded PRNG; `drop_frames` pins exact scenarios.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.hpp"
#include "support/rng.hpp"

namespace mojave::net {

/// Fault profile for WireChaos. All faults compose.
struct WireFaults {
  /// Added latency per forwarded read batch (both directions).
  double delay_seconds = 0;
  /// Forward in writes of at most this many bytes (0 = as read). Exposes
  /// every short-read bug: frame headers and payloads arrive in pieces.
  std::size_t split_bytes = 0;
  /// Cut the Nth accepted connection (1-based, 0 = never) after it has
  /// forwarded `reset_after_bytes` — deliberately mid-frame, modelling a
  /// peer dying with a partial frame on the wire.
  std::uint64_t reset_conn = 0;
  std::uint64_t reset_after_bytes = 256;
  /// Cap forwarded throughput, bytes/second per direction (0 = off): the
  /// narrow-WAN profile. A sender that outruns the cap sees backpressure
  /// as a stalled socket — exactly what the coalescing write path and
  /// partial-writev handling must survive.
  double bandwidth_bytes_per_sec = 0;
  /// Hold every Nth complete frame and emit it after its successor
  /// (0 = off): deterministic frame reordering, the multipath-WAN
  /// profile. Tolerated by the dnode runtime because mailboxes key on
  /// (src, tag).
  std::uint64_t reorder_every_n = 0;
  /// Swallow a frame and cut its connection, with this probability per
  /// frame (either direction), drawn from a PRNG seeded with `seed`.
  double drop_frame = 0;
  std::uint64_t seed = 1;
  /// Deterministic drops: the Nth frame this relay ever parses (1-based,
  /// counted across connections and both directions) is swallowed and its
  /// connection cut. Over a strict request/response protocol the count is
  /// exact: frame 4 of the migration handshake is the lost final ack.
  std::set<std::uint64_t> drop_frames;
};

struct WireStats {
  std::uint64_t connections = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t split_writes = 0;
  std::uint64_t resets = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t throttle_waits = 0;
};

/// A transparent TCP relay with fault injection. The runtime on either
/// side must tolerate every fault: redial + rollback-retry + replay make
/// dropped bytes recoverable for dnode, retry + the idempotent handshake
/// for migration.
class WireChaos {
 public:
  WireChaos(std::string upstream_host, std::uint16_t upstream_port,
            WireFaults faults);
  ~WireChaos();

  WireChaos(const WireChaos&) = delete;
  WireChaos& operator=(const WireChaos&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] WireStats stats() const;

  /// Freeze the relay (true) or let it run again (false). A held relay
  /// forwards nothing — no bytes and no EOF — so a peer behind it can die
  /// without the other side noticing until release.
  void hold(bool on);

  void stop();

 private:
  struct Pipe;

  void accept_loop();
  void pump(const std::shared_ptr<Pipe>& pipe, bool downstream,
            std::uint64_t conn_id);
  /// Block while the relay is held (returns at once when not).
  void wait_released();
  /// Count one parsed frame and decide whether the drop faults take it.
  [[nodiscard]] bool condemn_frame();

  std::string upstream_host_;
  std::uint16_t upstream_port_;
  WireFaults faults_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<Pipe>> pipes_;  // guarded by mu_
  mutable std::mutex mu_;
  std::condition_variable released_cv_;
  WireStats stats_;                // guarded by mu_
  Rng rng_;                        // guarded by mu_
  std::uint64_t frames_seen_ = 0;  // guarded by mu_
  bool reset_done_ = false;        // guarded by mu_
  bool held_ = false;              // guarded by mu_
  std::atomic<bool> stopping_{false};
};

}  // namespace mojave::net
