// Byte-level transport between the ShardedEngine coordinator and its shard
// workers: an owned stream-socket end plus length-framed message helpers.
//
// The framing is deliberately dumb — host-endian u64/u8 fields appended to a
// flat buffer, sent as one `u64 length + body` frame per protocol phase —
// because both ends are always the same binary (workers are fork()ed or run
// the same-build mpcspan_worker; the tcp handshake's version byte pins the
// latter). Every helper throws ShardError on short reads/writes or peer
// death; the engine converts that into a loud round failure rather than a
// hang. WireFd is the raw fd-pair implementation; transport.hpp's Channel
// wraps it with optional poll deadlines for fds that cross a real network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

class Channel;  // transport.hpp — deadline-aware wrapper over a WireFd

/// Transport-layer failure between the coordinator and a shard worker (a
/// worker died mid-round, a socket broke). Distinct from CapacityError: this
/// is an infrastructure fault, not an algorithm/model violation.
class ShardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A legitimate frame serializes a subset of round state that already fits
/// in the sending process's memory; a length beyond this cap can only be a
/// garbled prefix. Both the coordinator wire and the worker mesh reject it
/// as ShardError instead of attempting a zero-filled overcommit allocation.
constexpr std::uint64_t kMaxFrameBytes = 1ull << 34;  // 16 GiB

/// One end of a shard socketpair; owns and closes the fd.
class WireFd {
 public:
  WireFd() = default;
  explicit WireFd(int fd) : fd_(fd) {}
  ~WireFd() { reset(); }

  WireFd(const WireFd&) = delete;
  WireFd& operator=(const WireFd&) = delete;
  WireFd(WireFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  WireFd& operator=(WireFd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void reset(int fd = -1);

  /// Blocking full-buffer send/recv (EINTR-safe, SIGPIPE suppressed).
  /// Throws ShardError on EOF, peer death, or any socket error.
  void writeAll(const void* buf, std::size_t n);
  void readAll(void* buf, std::size_t n);

  /// Gathered full send of two buffers (EINTR-safe, SIGPIPE suppressed):
  /// one sendmsg covers header + body, so a frame that fits the socket
  /// buffer costs one syscall instead of two writeAll round trips.
  void writeAll2(const void* hdr, std::size_t nHdr, const void* body,
                 std::size_t nBody);

 private:
  int fd_ = -1;
};

/// Creates a connected AF_UNIX stream socketpair (parent end, child end).
void makeSocketPair(WireFd& parentEnd, WireFd& childEnd);

/// Append-only frame builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u64(std::uint64_t v);
  void words(const Word* p, std::size_t n);
  void str(const std::string& s);
  /// Raw byte append (re-scattering a slice another frame carried).
  void bytes(const std::uint8_t* p, std::size_t n);

  /// One (a, b, payload-length) header triple plus the payload words — the
  /// row format of the cross-shard sections — appended with two bulk
  /// inserts instead of four per-field ones (the resident hot path).
  void row(std::uint64_t a, std::uint64_t b, const Word* w, std::size_t n);

  /// Appends another writer's buffer verbatim (used to concatenate
  /// per-destination fragments built in parallel).
  void append(const WireWriter& other);

  /// Pre-sizes the buffer for a frame whose byte length is known (or
  /// bounded) upfront, so the hot row loops never reallocate mid-build.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  std::size_t size() const { return buf_.size(); }
  const std::uint8_t* data() const { return buf_.data(); }

  /// Sends `u64 length + body` as one frame (one gathered syscall).
  void sendFramed(WireFd& fd) const;
  /// Same frame over a Channel, honoring its deadline (defined in
  /// transport.cc — wire.cc stays fd-only).
  void sendFramed(Channel& ch) const;

 private:
  std::vector<std::uint8_t> buf_;
};

/// Cursor over one received frame. Either owns its bytes (recvFramed /
/// fromBytes) or is a non-owning view over bytes someone else owns
/// (view — the shm ring hands out frames in place, so the merge path
/// never copies them into a reader first). Same vetting either way.
class WireReader {
 public:
  static WireReader recvFramed(WireFd& fd);
  /// Same frame receive over a Channel, honoring its deadline (defined in
  /// transport.cc).
  static WireReader recvFramed(Channel& ch);
  /// Wraps an already-received (or test-crafted) frame body; the mesh
  /// exchange collects peer frames itself and hands the bytes here.
  static WireReader fromBytes(std::vector<std::uint8_t> bytes);
  /// Non-owning view: the caller guarantees [p, p + n) outlives every read
  /// (the shm exchange keeps the ring span reserved until the merge is
  /// done — see ShmArena::releaseInbound).
  static WireReader view(const std::uint8_t* p, std::size_t n);

  WireReader() = default;
  WireReader(const WireReader&) = delete;
  WireReader& operator=(const WireReader&) = delete;
  WireReader(WireReader&& o) noexcept { moveFrom(o); }
  WireReader& operator=(WireReader&& o) noexcept {
    if (this != &o) moveFrom(o);
    return *this;
  }

  std::uint8_t u8();
  std::uint64_t u64();
  std::string str();
  /// Reads n words into out (which must have room for n).
  void words(Word* out, std::size_t n);
  /// Vets and consumes n bytes (n is wire-supplied), returning a pointer
  /// into the frame buffer (valid while this reader lives) — copy-free
  /// re-scattering.
  const std::uint8_t* raw(std::size_t n);
  bool atEnd() const { return pos_ == size_; }
  /// Unread bytes left in the frame — lets callers sanity-check a
  /// wire-supplied element count before sizing containers by it.
  std::size_t remaining() const { return size_ - pos_; }
  /// Cursor save/restore for two-pass parses (vet + count, rewind, fill).
  std::size_t pos() const { return pos_; }
  void seek(std::size_t pos);

 private:
  void need(std::size_t n) const;
  void moveFrom(WireReader& o) noexcept {
    buf_ = std::move(o.buf_);
    view_ = o.view_;
    data_ = view_ ? o.data_ : buf_.data();
    size_ = o.size_;
    pos_ = o.pos_;
    o.data_ = nullptr;
    o.size_ = o.pos_ = 0;
    o.view_ = false;
  }

  std::vector<std::uint8_t> buf_;   // backing storage (owned mode only)
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  bool view_ = false;
};

}  // namespace mpcspan::runtime::shard
