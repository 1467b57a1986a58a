// TCP rendezvous for the sharded engine: the connector half of the
// Transport::kTcp path, replacing pre-fork fd inheritance so shards can live
// on other machines.
//
// Shape of a rendezvous (coordinator = the engine process, one worker per
// shard; workers are either fork()ed locally or attached remotely by
// `mpcspan_worker --connect host:port --shard k`):
//
//   1. The coordinator listens on MPCSPAN_TCP_PORT (0 / unset = ephemeral).
//   2. Each worker opens its own ephemeral *mesh* listener, dials the
//      coordinator, and sends a control hello:
//        u64 magic "MPCSPAN1" | u8 version | u64 shard | u64 epoch |
//        u64 mesh-listener port
//      epoch 0 means "attach me" (remote workers cannot know the epoch);
//      forked workers echo the epoch they inherited, and anything else is a
//      stale/foreign dial the coordinator rejects with ShardError.
//   3. Once every shard has checked in, the coordinator answers each with a
//      roster: u64 magic | u8 version | u64 epoch | u64 shards |
//      shards x (str host + u64 mesh port). Remote attachers additionally
//      get a SETUP frame (see worker_loop.hpp) carrying the engine state a
//      fork snapshot would have given them.
//   4. Workers dial each other to form the full mesh — shard s dials every
//      t < s and accepts from every t > s (deadlock-free: connects complete
//      against the listen backlog) — each connection opening with a mesh
//      hello (magic | version | shard | epoch) + one ack byte.
//
// Every blocking wait in the rendezvous and in the per-round traffic runs
// under a poll deadline (MPCSPAN_TCP_TIMEOUT_MS); a refused dial, a
// half-open peer, or a hello from the wrong epoch surfaces as ShardError,
// never a hang.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/shard/transport.hpp"

namespace mpcspan::runtime::shard {

/// First field of every tcp hello ("MPCSPAN1" as a host-endian u64): a
/// stray client dialing the port fails the handshake immediately instead of
/// being interpreted as a shard.
constexpr std::uint64_t kTcpMagic = 0x314e415053504d4dull;
/// Bumped whenever a control or mesh frame changes shape; remote workers
/// from an older build are rejected at the handshake.
constexpr std::uint8_t kTcpVersion = 3;

// The tcp env knobs are strict (util/args.hpp envInteger/envFlag): a
// malformed or out-of-range value throws std::invalid_argument naming the
// variable instead of silently falling back.

/// MPCSPAN_TCP_TIMEOUT_MS (default 30000, >= 1): per-blocking-wait deadline
/// for every tcp channel.
int defaultTcpTimeoutMs();
/// MPCSPAN_TCP_PORT (default 0 = kernel-assigned, [0, 65535]): the
/// coordinator's rendezvous port. Remote workers must be pointed at a fixed
/// value.
std::uint16_t defaultTcpPort();
/// MPCSPAN_TCP_REMOTE=1 (0/1 only): the coordinator forks nothing and
/// instead waits for every shard to attach via mpcspan_worker.
bool defaultTcpRemote();

/// Nonzero, unique-per-engine rendezvous epoch (pid + counter mix). Zero is
/// reserved as the remote worker's "attach me" hello value.
std::uint64_t makeTcpEpoch();

/// Listening IPv4 stream socket (INADDR_ANY); owns and closes the fd.
class TcpListener {
 public:
  TcpListener() = default;
  /// Binds and listens; port 0 asks the kernel for an ephemeral port
  /// (read back via port()). Throws ShardError on failure.
  explicit TcpListener(std::uint16_t port);

  bool valid() const { return fd_.valid(); }
  std::uint16_t port() const { return port_; }
  /// Closes the listener (also used by forked workers to drop the
  /// coordinator listener they inherited).
  void reset() { fd_.reset(); }

  /// Accepts one connection within deadlineMs (ShardError on expiry);
  /// the returned fd has TCP_NODELAY + SO_KEEPALIVE set.
  WireFd accept(int deadlineMs);

 private:
  WireFd fd_;
  std::uint16_t port_ = 0;
};

/// Dials host:port within deadlineMs. A refused, unreachable, or timed-out
/// connect throws ShardError; the returned fd is blocking with
/// TCP_NODELAY + SO_KEEPALIVE set.
WireFd tcpConnect(const std::string& host, std::uint16_t port, int deadlineMs);

/// The worker->coordinator control hello (step 2 above).
struct TcpHello {
  std::uint64_t shard = 0;
  std::uint64_t epoch = 0;  // 0 = remote attach request
  std::uint16_t meshPort = 0;
};

/// One roster row: where shard k's mesh listener can be dialed.
struct TcpPeerAddr {
  std::string host;
  std::uint16_t port = 0;
};

void sendControlHello(Channel& ch, const TcpHello& hello);
/// Vets magic + version (ShardError on mismatch); epoch/shard semantics are
/// the caller's to enforce.
TcpHello readControlHello(Channel& ch);

void sendRoster(Channel& ch, std::uint64_t epoch,
                const std::vector<TcpPeerAddr>& roster);
/// Vets magic + version and, when expectedEpoch != 0, the epoch too.
std::vector<TcpPeerAddr> readRoster(Channel& ch, std::uint64_t expectedEpoch,
                                    std::uint64_t* epochOut);

/// Forms shard `self`'s mesh row (step 4): dials roster[t] for t < self,
/// accepts the rest on meshListener, handshakes every connection against
/// `epoch`, and returns the fds nonblocking — ready for meshExchange().
/// peers[self] is left invalid.
std::vector<WireFd> formTcpMesh(std::size_t self, std::uint64_t epoch,
                                TcpListener& meshListener,
                                const std::vector<TcpPeerAddr>& roster,
                                int deadlineMs);

/// Numeric address of the connected peer ("127.0.0.1" style) — what the
/// coordinator advertises in the roster as a worker's mesh host.
std::string peerHostOf(int fd);

}  // namespace mpcspan::runtime::shard
