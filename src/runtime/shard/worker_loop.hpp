// The resident worker's command loop, extracted from ShardedEngine so it
// can run in two kinds of process:
//
//   - a fork()ed child of the coordinator (kShmRing, and kTcp's default
//     local mode): the WorkerConfig is built from the engine's members and
//     the kernel table / block store arrive with the fork snapshot;
//   - a *remote* process (`mpcspan_worker --connect host:port --shard k`)
//     that dialed the tcp rendezvous: the same state arrives in a SETUP
//     frame (kOpSetup) instead, and kernels resolve by name against the
//     process-global registry — the only identities that exist across
//     binaries.
//
// Either way the loop speaks the protocol.hpp control frames over `ctrl`
// and exchanges cross-shard sections over `peers`, and its observable
// behavior (delivery order, validation, error surface) is identical — the
// transports are bit-identical by construction. The loop serves only what
// lives here: kernel rounds and phases, and blocks. Coordinator-built
// rounds are delivered in-process by RoundEngine and never reach it; the
// resident inboxes it keeps are read through a kernel's fetch()
// (RoundEngine::fetchKernel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

class ShmArena;

/// The balanced contiguous machine split shared by the coordinator and the
/// workers (the one definition — coordinator-side bucketing and worker-side
/// range checks must never drift apart).
std::size_t shardRangeBegin(std::size_t numMachines, std::size_t shards,
                            std::size_t s);
inline std::size_t shardRangeEnd(std::size_t numMachines, std::size_t shards,
                                 std::size_t s) {
  return shardRangeBegin(numMachines, shards, s + 1);
}
std::size_t shardOfMachine(std::size_t numMachines, std::size_t shards,
                           std::size_t machine);

/// Everything the command loop needs to know about its place in the engine.
/// `topology` is borrowed (fork-shared or owned by the caller's
/// RemoteSetup); `shmArena` is non-null exactly under kShmRing — the mesh
/// row then carries only doorbells, otherwise it is the tcp mesh.
struct WorkerConfig {
  std::size_t numMachines = 0;
  std::size_t shards = 0;
  std::size_t shard = 0;
  std::size_t threads = 1;
  const Topology* topology = nullptr;
  ShmArena* shmArena = nullptr;
  /// Total communication budget of one round's peer-exchange waits (ms;
  /// < 0 = unbounded). Same-host meshes pass -1; tcp passes its channel
  /// deadline. Seeded into one DeadlineBudget per round — shared across
  /// every wait, so a trickling peer spends it rather than resetting it.
  int meshTimeoutMs = -1;
};

/// Runs the resident command loop until SHUTDOWN or wire EOF (both return
/// cleanly; protocol violations and transport corruption throw out as the
/// caller's exit-status policy dictates). `ctrl` is the coordinator
/// channel; `peers` is this worker's mesh row. `kernels` and `store` are
/// the snapshot state the loop adopts; `store` is caller-owned because
/// BlockStore is non-copyable and the remote path materializes it straight
/// off the wire.
void runResidentWorker(const WorkerConfig& cfg, Channel& ctrl,
                       std::vector<WireFd>& peers,
                       std::vector<KernelRegistration> kernels,
                       BlockStore& store);

/// Coordinator side of remote provisioning: one kOpSetup frame carrying
/// what shard `shard`'s fork snapshot would have carried — dimensions, the
/// topology's wire descriptor, the kernel *names* (factories cannot cross
/// binaries; the worker resolves them globally), and the shard's slice of
/// the block store. Throws ShardError if the topology is not
/// wire-serializable (Topology::WireKind::kOpaque — a custom subclass).
void sendWorkerSetup(Channel& ch, std::size_t numMachines, std::size_t shards,
                     std::size_t shard, std::size_t threads,
                     const Topology& topology,
                     const std::vector<KernelRegistration>* kernels,
                     const BlockStore* blocks);

/// What readWorkerSetup materializes from the frame. `cfg.topology` points
/// at `topology`; move the struct as a unit.
struct RemoteSetup {
  WorkerConfig cfg;
  std::unique_ptr<Topology> topology;
  std::vector<KernelRegistration> kernels;  // names only
  std::unique_ptr<BlockStore> store;
};

/// Worker side: reads the kOpSetup frame off `ch` and rebuilds the snapshot
/// state. Every wire-supplied size is vetted; a malformed frame (or a frame
/// that is not kOpSetup) throws ShardError.
RemoteSetup readWorkerSetup(Channel& ch);

}  // namespace mpcspan::runtime::shard
