// The transport seam of the shard layer: a Channel is one end of a
// coordinator<->worker or worker<->worker stream, whatever created the fd.
//
// Two implementations share the class:
//   - fd-pair:  pre-fork AF_UNIX socketpairs (and the shm transport's
//     doorbell sockets). No deadline — both ends are children of the same
//     process, so peer death always surfaces as an EOF/EPIPE cascade.
//   - tcp:      fds produced by the tcp_transport.hpp rendezvous. A real
//     network can stall without ever delivering EOF (half-open peers,
//     black-holed routes), so these channels carry a poll deadline: every
//     blocking read/write first waits for readiness at most deadlineMs and
//     throws ShardError on expiry instead of hanging the round.
//
// With no deadline set, Channel delegates straight to WireFd — the fd stays
// blocking and the fast paths (gathered writes, full-buffer reads) are
// byte-for-byte the pre-transport behavior. With a deadline, the fd is
// switched to nonblocking I/O paced by poll(). The deadline is per blocking
// wait, not per frame: progress resets the clock, silence expires it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/shard/wire.hpp"

namespace mpcspan::runtime::shard {

class Channel {
 public:
  Channel() = default;
  explicit Channel(WireFd fd, int deadlineMs = -1);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.fd(); }
  void reset() { fd_.reset(); }

  /// Deadline (ms) applied to each blocking wait; < 0 means wait forever.
  /// Mutable because one channel alternates between round I/O (bounded) and
  /// the worker's idle top-of-loop command read (unbounded — an idle engine
  /// may legitimately not speak for minutes; SO_KEEPALIVE covers a peer
  /// that died silently in the meantime). A channel constructed without a
  /// deadline stays a pure WireFd delegate; one constructed *with* a
  /// deadline keeps its poll-paced nonblocking I/O even while the deadline
  /// is temporarily -1 (infinite poll, same semantics).
  void setDeadline(int deadlineMs) { deadlineMs_ = deadlineMs; }
  int deadline() const { return deadlineMs_; }

  /// Full-buffer I/O with the same ShardError contract as WireFd; honors
  /// the deadline when one is set.
  void readAll(void* buf, std::size_t n);
  void writeAll(const void* buf, std::size_t n);
  void writeAll2(const void* hdr, std::size_t nHdr, const void* body,
                 std::size_t nBody);

  /// Surrenders the owned fd (restored to blocking mode) — used by the
  /// rendezvous, which handshakes through a deadline Channel and then hands
  /// the raw fd to the peer mesh.
  WireFd release();

 private:
  /// Waits for `events` (POLLIN/POLLOUT) within the deadline; throws
  /// ShardError("tcp channel timed out...") on expiry.
  void awaitReady(short events);

  WireFd fd_;
  int deadlineMs_ = -1;
  bool paced_ = false;  // fd is nonblocking, I/O runs through awaitReady
};

}  // namespace mpcspan::runtime::shard
