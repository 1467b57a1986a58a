#include "runtime/shard/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "runtime/shard/peer_mesh.hpp"
#include "util/deadline.hpp"

namespace mpcspan::runtime::shard {

namespace {

long envLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

[[noreturn]] void throwErrno(const std::string& what) {
  throw ShardError(what + ": " + std::strerror(errno));
}

/// TCP_NODELAY (barrier bytes must not sit in Nagle buffers) and
/// SO_KEEPALIVE (an idle channel to a silently dead remote eventually
/// errors instead of staying half-open forever).
void tuneTcpFd(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
}

void awaitFd(int fd, short events, int deadlineMs, const char* what) {
  // The deadline is absolute: an EINTR restart polls only for the time
  // still remaining, so a signal-heavy process (the serving daemon's
  // SIGHUP reloads, profilers) cannot extend the wait past deadlineMs.
  const util::DeadlineBudget budget(deadlineMs);
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, budget.remainingMs());
    if (rc < 0) {
      if (errno == EINTR) continue;
      throwErrno(std::string(what) + " poll");
    }
    if (rc == 0)
      throw ShardError(std::string(what) + " timed out after " +
                       std::to_string(deadlineMs) + " ms");
    return;
  }
}

}  // namespace

int defaultTcpTimeoutMs() {
  const long ms = envLong("MPCSPAN_TCP_TIMEOUT_MS", 30000);
  return ms > 0 ? static_cast<int>(ms) : 30000;
}

std::uint16_t defaultTcpPort() {
  const long p = envLong("MPCSPAN_TCP_PORT", 0);
  return (p > 0 && p <= 65535) ? static_cast<std::uint16_t>(p) : 0;
}

bool defaultTcpRemote() { return envLong("MPCSPAN_TCP_REMOTE", 0) == 1; }

std::uint64_t makeTcpEpoch() {
  static std::atomic<std::uint64_t> counter{0};
  // pid in the high bits separates concurrent engines on one host; the
  // counter separates successive engines in one process; the clock guards
  // against pid reuse across coordinator restarts.
  std::uint64_t e = (static_cast<std::uint64_t>(::getpid()) << 40) ^
                    (counter.fetch_add(1) << 20) ^
                    static_cast<std::uint64_t>(std::time(nullptr));
  if (e == 0) e = 1;  // 0 is the "attach me" sentinel
  return e;
}

TcpListener::TcpListener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throwErrno("tcp listener socket");
  fd_.reset(fd);
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throwErrno("tcp listener bind (port " + std::to_string(port) + ")");
  if (::listen(fd, SOMAXCONN) != 0) throwErrno("tcp listener listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throwErrno("tcp listener getsockname");
  port_ = ntohs(addr.sin_port);
}

WireFd TcpListener::accept(int deadlineMs) {
  awaitFd(fd_.fd(), POLLIN, deadlineMs, "tcp rendezvous accept");
  for (;;) {
    const int conn = ::accept4(fd_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR) continue;
      throwErrno("tcp rendezvous accept");
    }
    tuneTcpFd(conn);
    return WireFd(conn);
  }
}

WireFd tcpConnect(const std::string& host, std::uint16_t port,
                  int deadlineMs) {
  const std::string where = host + ":" + std::to_string(port);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int gai =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (gai != 0 || res == nullptr)
    throw ShardError("tcp connect to " + where +
                     ": resolve failed: " + ::gai_strerror(gai));
  sockaddr_storage addr{};
  const socklen_t addrLen = static_cast<socklen_t>(res->ai_addrlen);
  std::memcpy(&addr, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) throwErrno("tcp connect socket");
  WireFd owned(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), addrLen) != 0) {
    if (errno != EINPROGRESS)
      throwErrno("tcp connect to " + where);
    awaitFd(fd, POLLOUT, deadlineMs, ("tcp connect to " + where).c_str());
    int err = 0;
    socklen_t errLen = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errLen) != 0)
      throwErrno("tcp connect getsockopt");
    if (err != 0)
      throw ShardError("tcp connect to " + where + ": " +
                       std::strerror(err));
  }
  // Back to blocking: Channel decides the pacing from here.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) < 0)
    throwErrno("tcp connect fcntl");
  tuneTcpFd(fd);
  return owned;
}

void sendControlHello(Channel& ch, const TcpHello& hello) {
  WireWriter w;
  w.u64(kTcpMagic);
  w.u8(kTcpVersion);
  w.u64(hello.shard);
  w.u64(hello.epoch);
  w.u64(hello.meshPort);
  w.sendFramed(ch);
}

namespace {

void vetMagicVersion(WireReader& r, const char* what) {
  if (r.u64() != kTcpMagic)
    throw ShardError(std::string(what) +
                     ": bad magic (not an mpcspan shard peer)");
  const std::uint8_t version = r.u8();
  if (version != kTcpVersion)
    throw ShardError(std::string(what) + ": protocol version " +
                     std::to_string(version) + " != " +
                     std::to_string(kTcpVersion) +
                     " (mixed builds across machines?)");
}

}  // namespace

TcpHello readControlHello(Channel& ch) {
  WireReader r = WireReader::recvFramed(ch);
  vetMagicVersion(r, "tcp control handshake");
  TcpHello hello;
  hello.shard = r.u64();
  hello.epoch = r.u64();
  const std::uint64_t meshPort = r.u64();
  if (meshPort == 0 || meshPort > 65535)
    throw ShardError("tcp control handshake: implausible mesh port " +
                     std::to_string(meshPort));
  hello.meshPort = static_cast<std::uint16_t>(meshPort);
  return hello;
}

void sendRoster(Channel& ch, std::uint64_t epoch,
                const std::vector<TcpPeerAddr>& roster) {
  WireWriter w;
  w.u64(kTcpMagic);
  w.u8(kTcpVersion);
  w.u64(epoch);
  w.u64(roster.size());
  for (const TcpPeerAddr& peer : roster) {
    w.str(peer.host);
    w.u64(peer.port);
  }
  w.sendFramed(ch);
}

std::vector<TcpPeerAddr> readRoster(Channel& ch, std::uint64_t expectedEpoch,
                                    std::uint64_t* epochOut) {
  WireReader r = WireReader::recvFramed(ch);
  vetMagicVersion(r, "tcp roster");
  const std::uint64_t epoch = r.u64();
  if (expectedEpoch != 0 && epoch != expectedEpoch)
    throw ShardError("tcp roster: epoch mismatch (stale rendezvous?)");
  const std::uint64_t count = r.u64();
  if (count == 0 || count > r.remaining())
    throw ShardError("tcp roster: implausible shard count");
  std::vector<TcpPeerAddr> roster(count);
  for (TcpPeerAddr& peer : roster) {
    peer.host = r.str();
    const std::uint64_t port = r.u64();
    if (port == 0 || port > 65535)
      throw ShardError("tcp roster: implausible mesh port");
    peer.port = static_cast<std::uint16_t>(port);
  }
  if (epochOut != nullptr) *epochOut = epoch;
  return roster;
}

std::vector<WireFd> formTcpMesh(std::size_t self, std::uint64_t epoch,
                                TcpListener& meshListener,
                                const std::vector<TcpPeerAddr>& roster,
                                int deadlineMs) {
  const std::size_t count = roster.size();
  std::vector<WireFd> peers(count);
  // Dial every lower shard; its hello identifies us, its ack confirms the
  // epoch matched on the far side.
  for (std::size_t t = 0; t < self; ++t) {
    Channel ch(tcpConnect(roster[t].host, roster[t].port, deadlineMs),
               deadlineMs);
    WireWriter w;
    w.u64(kTcpMagic);
    w.u8(kTcpVersion);
    w.u64(self);
    w.u64(epoch);
    w.sendFramed(ch);
    std::uint8_t ack = 0;
    ch.readAll(&ack, 1);
    if (ack != 1)
      throw ShardError("tcp mesh handshake: shard " + std::to_string(t) +
                       " refused the dial");
    peers[t] = ch.release();
  }
  // Accept every higher shard; the hello says which one arrived (dial order
  // across peers is not deterministic).
  for (std::size_t pending = count - self - 1; pending > 0; --pending) {
    Channel ch(meshListener.accept(deadlineMs), deadlineMs);
    WireReader r = WireReader::recvFramed(ch);
    vetMagicVersion(r, "tcp mesh handshake");
    const std::uint64_t from = r.u64();
    const std::uint64_t fromEpoch = r.u64();
    if (fromEpoch != epoch)
      throw ShardError("tcp mesh handshake: dial from stale epoch");
    if (from <= self || from >= count || peers[from].valid())
      throw ShardError("tcp mesh handshake: unexpected shard id " +
                       std::to_string(from));
    const std::uint8_t ack = 1;
    ch.writeAll(&ack, 1);
    peers[from] = ch.release();
  }
  // meshExchange drives these fds with poll + nonblocking pumps.
  for (std::size_t t = 0; t < count; ++t)
    if (peers[t].valid()) setNonBlocking(peers[t]);
  return peers;
}

std::string peerHostOf(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throwErrno("tcp getpeername");
  char buf[INET_ADDRSTRLEN] = {0};
  if (::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) == nullptr)
    throwErrno("tcp inet_ntop");
  return std::string(buf);
}

}  // namespace mpcspan::runtime::shard
