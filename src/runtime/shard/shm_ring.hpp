// Shared-memory ring transport for the resident worker mesh.
//
// With the shm exchange selected (Transport::kShmRing — the default on a
// same-host engine), every ordered worker pair
// (a → b) shares one fixed-size SPSC byte ring inside a single
// mmap(MAP_SHARED) arena that the coordinator creates *before the first
// fork* and shm_unlink()s the moment it is mapped — a crashed run can
// never leave an orphan under /dev/shm. Senders serialize each cross-shard
// section exactly once, straight into the ring (same frame bytes as the
// tcp mesh: `u64 bodyLen | u64 rowCount | rows`); receivers parse a
// frame that fits the ring *in place* through a non-owning WireReader view
// and only release the ring span after the merge has consumed it
// (ShmArena::releaseInbound), so a cross-shard payload is copied exactly
// once on the whole path — ring bytes into the receiver's delivery arena.
//
// A pre-fork socketpair mesh stays underneath as the wakeup channel: a
// worker that advances its ring (produced or consumed) rings a one-byte
// doorbell so a blocked peer re-pumps. Doorbell sends are nonblocking and
// EAGAIN is safely ignored — a full doorbell buffer means the peer already
// has wakeups queued. Peer death keeps the mesh semantics: the doorbell
// socket reports EOF, the survivor drains the ring one last time, and an
// incomplete frame becomes the same "peer shard worker died mid-exchange"
// ShardError the tcp mesh raises.
//
// Frame placement rules (both ends compute from the same free-running
// stream position, so no flags cross the wire):
//   - the 8-byte length prefix never wraps: a position within 8 bytes of
//     the ring edge is an implicit filler the sender skips and the
//     receiver skips identically;
//   - a body that fits the ring (bodyLen <= cap - 8) is kept contiguous:
//     if it would wrap, the sender writes a kPadMarker length and restarts
//     the frame at the ring edge, and the receiver hands out a zero-copy
//     view of the body;
//   - a larger body streams through the ring in chunks, the receiver
//     copying into a heap frame and releasing ring space as it goes
//     (backpressure: sender and receiver ping-pong on the doorbell).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/shard/wire.hpp"

namespace mpcspan::runtime::shard {

/// Producer/consumer cursors of one ring, each on its own cache line so
/// the two sides never false-share. Positions are free-running byte
/// offsets (never wrapped); `pos & (cap - 1)` is the ring offset.
struct alignas(64) RingHdr {
  std::atomic<std::uint64_t> produced;
  char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> consumed;
  char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
};
static_assert(sizeof(RingHdr) == 128, "two cache lines");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm ring cursors must be lock-free across processes");

/// Length-prefix value that can never be a real body length (it exceeds
/// kMaxFrameBytes): "skip to the ring edge and re-read the prefix there".
constexpr std::uint64_t kPadMarker = ~0ull;

/// Ring capacity in bytes: MPCSPAN_SHM_RING_BYTES (in [1, 1 GiB]; anything
/// else throws std::invalid_argument) rounded up to a power of two, at
/// least 4 KiB; 1 MiB when unset.
std::size_t defaultShmRingBytes();

/// The process-shared arena: workers * workers ring slots (diagonal
/// unused), created pre-fork so every worker inherits the same mapping.
/// The backing shm object is unlinked immediately after mmap — the mapping
/// lives exactly as long as the processes that hold it.
class ShmArena {
 public:
  ShmArena(std::size_t workers, std::size_t ringBytes = defaultShmRingBytes());
  ~ShmArena();

  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  std::size_t workers() const { return workers_; }
  std::size_t ringBytes() const { return ringBytes_; }

  /// The (from → to) ring's cursors / data bytes.
  RingHdr& hdr(std::size_t from, std::size_t to) const;
  std::uint8_t* data(std::size_t from, std::size_t to) const;

  /// Records that the (from → to) ring's consumed cursor must advance to
  /// `newConsumed` once the in-place frame view has been merged. The
  /// record is process-local, one slot per ring, so receivers never share
  /// a slot (not even workers simulated as threads of one process).
  void deferRelease(std::size_t from, std::size_t to,
                    std::uint64_t newConsumed);
  /// Applies the deferred releases of every ring into `to`. Must run only
  /// after the merge consumed the frame views: a released span is free for
  /// the peer's next frame.
  void releaseInbound(std::size_t to);

 private:
  std::size_t slotBytes() const { return sizeof(RingHdr) + ringBytes_; }

  std::uint8_t* base_ = nullptr;
  std::size_t mapBytes_ = 0;
  std::size_t workers_ = 0;
  std::size_t ringBytes_ = 0;

  /// Deferred consumed cursor per (from, to) ring; 0 = nothing deferred
  /// (a release always advances past a whole frame, so it is never 0).
  std::vector<std::uint64_t> deferred_;
};

/// One outgoing frame's progress through its ring. `stage` 0 is still
/// placing the length prefix (and, for ring-sized bodies, the whole frame
/// at once); stage 1 streams an oversized body chunk by chunk.
struct ShmSendFrame {
  RingHdr* h = nullptr;
  std::uint8_t* d = nullptr;
  std::uint64_t cap = 0;
  std::uint64_t rowCount = 0;
  const std::uint8_t* rows = nullptr;  // borrowed from the caller's section
  std::uint64_t rowsLen = 0;
  std::uint64_t bodyLen = 0;
  std::uint64_t bodyOff = 0;
  int stage = 0;
  bool contiguous = false;
  bool done = true;
};

/// The send half of one STEP round's exchange, indexed by peer shard.
struct ShmSendState {
  std::vector<ShmSendFrame> outs;
};

/// Starts shipping this round's sections: writes as much of every outbound
/// frame as its ring accepts *right now*, without blocking, and rings the
/// doorbell for every ring it advanced — a peer that already reached its
/// own exchange may be parked in poll waiting for exactly this frame.
/// Called straight after phase-A compute, before any barrier report; in
/// the steady state (empty rings) every ring-sized frame is fully placed
/// here and finishShmExchange never blocks. The sections must outlive the
/// returned state (rows are borrowed).
ShmSendState beginShmSend(ShmArena& arena, std::size_t self,
                          const std::vector<std::uint64_t>& counts,
                          const std::vector<WireWriter>& sections,
                          std::vector<WireFd>& doorbells);

/// Completes the exchange: finishes any oversized sends
/// and receives one frame from every peer's (t → self) ring, multiplexed
/// on the doorbell sockets (`doorbells` is the worker's mesh row). Returns
/// the frame bodies indexed by peer shard (empty reader at `self`), each
/// positioned at its leading row count — in-place ring views for bodies
/// that fit the ring (release them with arena.releaseInbound(self) after
/// merging), owned heap frames for larger bodies. Same body bytes, same
/// ShardError surface as meshExchange.
std::vector<WireReader> finishShmExchange(ShmArena& arena,
                                          std::vector<WireFd>& doorbells,
                                          std::size_t self, ShmSendState& st);

/// beginShmSend + finishShmExchange in one call (unit tests and one-shot
/// exchanges; the engine splits the two around the barrier).
std::vector<WireReader> shmExchange(ShmArena& arena,
                                    std::vector<WireFd>& doorbells,
                                    std::size_t self,
                                    const std::vector<std::uint64_t>& counts,
                                    const std::vector<WireWriter>& sections);

}  // namespace mpcspan::runtime::shard
