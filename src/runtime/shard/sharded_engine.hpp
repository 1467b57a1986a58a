// ShardedEngine — the multi-process backend of runtime::RoundEngine.
//
// The simulated machines are partitioned into contiguous shards, each owned
// by a resident worker *process* (fork, never exec) running the
// work-stealing ThreadPool over its machine range. The workers fork once
// per engine — lazily, at the first operation that needs them, so every
// kernel factory and block registered up to that point crosses in the fork
// snapshot — and then stay alive across rounds, driven by small control
// frames over the wire:
//
//   REGISTER_KERNEL  bind a kernel id to a name/factory (ack'd);
//   STEP             one kernel round over the fused barrier below;
//   LOCAL / FETCH    free kernel phases (no round): per-machine local
//                    compute, per-machine state readout — a kernel's
//                    fetch() sees the machine's resident inbox, which is
//                    how resident deliveries are observed;
//   STORE/FETCH/FREE worker-owned BlockStore maintenance (DistVector);
//   SHUTDOWN         clean exit; the destructor sends it and reaps.
//
// Only what lives on the workers crosses this wire. A coordinator-built
// round (RoundEngine::exchange) already has every outbox at the
// coordinator, so RoundEngine delivers it in-process on every engine; an
// engine that runs only such rounds never forks a worker.
//
// Two transports carry the cross-shard sections of a STEP round:
//   - kShmRing (the default): per-worker-pair SPSC rings in one shared
//     mmap arena created before the fork; a pre-fork socketpair mesh
//     carries only doorbell bytes (runtime/shard/shm_ring.hpp);
//   - kTcp: a TCP mesh formed by rendezvous (runtime/shard/
//     tcp_transport.hpp), loopback forks by default or remote
//     `mpcspan_worker` attaches (MPCSPAN_TCP_REMOTE=1). It is also the
//     fallback when the shm arena cannot be created.
//
// Every STEP round runs one fused, pipelined, epoch-tagged barrier:
//   phase A  every worker runs kernel->step over its machines, buckets the
//            cross-shard messages into per-peer sections, and validates its
//            own sources (Topology::validateSources);
//   report   one frame up per worker: outcome, epoch, words sent, and (for
//            topologies with receive budgets) its per-destination word
//            sums;
//   exchange without waiting for the verdict, each worker ships its
//            sections straight to the destination workers, merges the
//            inbound ones in ascending source-shard order, and stages the
//            deliveries in a back-buffer inbox (a worker whose phase A
//            failed still pumps empty sections so no peer blocks);
//   verdict  the coordinator totals the sums, runs
//            Topology::validateInbound, and broadcasts one commit/abort
//            frame echoing the epoch; commit flips the back buffers live,
//            abort discards them, and the coordinator rethrows the loud
//            CapacityError / std::invalid_argument without charging the
//            ledger.
//
// Delivery order is fixed by the serial merge rule — never by process or
// thread scheduling — so 1-shard, N-shard, 1-thread, N-thread runs of one
// workload stay bit-identical: same rounds, same ledger, same contents.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime::shard {

class ShmArena;

class ShardedEngine {
 public:
  /// `topology`, `kernels`, and `blocks` are borrowed from the owning
  /// RoundEngine; the worker fork snapshots whatever they hold at start()
  /// time (kernels registered and blocks created before the first sharded
  /// operation cross for free). `threadsPerShard` is the lane count of each
  /// worker's local pool (>= 1). `shards` must be in [2, numMachines] — a
  /// single shard is RoundEngine's in-process path. `transport` kDefault
  /// resolves to defaultTcpExchange() ? kTcp : kShmRing. A kShmRing engine
  /// creates its shared arena here; if that fails (no POSIX shm, no space)
  /// the engine runs on kTcp over loopback instead.
  ShardedEngine(std::size_t numMachines, std::size_t shards,
                std::size_t threadsPerShard, const Topology* topology,
                const std::vector<KernelRegistration>* kernels = nullptr,
                BlockStore* blocks = nullptr,
                Transport transport = Transport::kDefault);

  /// Sends SHUTDOWN to every worker and reaps it (EINTR-safe); never
  /// throws, never leaks a zombie.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t numShards() const { return shards_; }
  std::size_t threadsPerShard() const { return threadsPerShard_; }
  /// The transport in use (never kDefault; kTcp after an shm fallback).
  Transport transport() const { return transport_; }
  /// True once the workers have forked (they fork lazily, at the first
  /// kernel or block operation).
  bool started() const { return !workers_.empty(); }
  /// Pids of the live workers (empty before start(); -1 for remote tcp
  /// attaches); stable across rounds — the acceptance check that forking
  /// happens once.
  std::vector<pid_t> workerPids() const;

  /// Machine range [shardBegin(s), shardEnd(s)) owned by shard s, and the
  /// inverse map (the one definition of the balanced contiguous split —
  /// the coordinator's bucketing and the workers' range checks must never
  /// drift apart).
  std::size_t shardBegin(std::size_t s) const;
  std::size_t shardEnd(std::size_t s) const { return shardBegin(s + 1); }
  std::size_t shardOf(std::size_t machine) const;

  /// Announces an engine-level registration to the running workers; no-op
  /// before start() (the fork snapshot carries the table). The workers
  /// resolve `name` against their registries and ack, so an unresolvable
  /// kernel fails loudly here, not mid-round.
  void registerKernel(std::size_t id, const std::string& name);

  /// One kernel round (the STEP barrier above). Writes the words moved to
  /// roundWords; deliveries land in the worker-resident inboxes. With
  /// `freePlacement` the round is a data-placement shuffle
  /// (RoundEngine::stepShuffle): same barrier and delivery order, but no
  /// topology validation, deliver-all even under priority-write, and
  /// roundWords stays 0 — the caller must not charge the ledger.
  void stepKernel(std::size_t id, const std::vector<Word>& args,
                  std::size_t& roundWords, bool freePlacement = false);

  /// Free kernel phases (LOCAL / FETCH): no round, no ledger.
  void localKernel(std::size_t id, const std::vector<Word>& args);
  std::vector<std::vector<Word>> fetchKernel(std::size_t id,
                                             const std::vector<Word>& args);

  /// Worker-owned BlockStore maintenance. Before start() the blocks live in
  /// the coordinator's store and cross with the fork snapshot; afterwards
  /// they move over the wire to the worker owning each machine.
  void storeBlocks(std::uint64_t handle,
                   std::vector<std::vector<Word>> perMachine);
  std::vector<std::vector<Word>> fetchBlocks(std::uint64_t handle);
  void freeBlocks(std::uint64_t handle);

  /// The MPCSPAN_SHARDS env var (>= 1), else 1. A malformed value throws
  /// std::invalid_argument naming the variable.
  static std::size_t defaultShards();
  /// MPCSPAN_TCP_EXCHANGE env var (0/1 only): 1 selects the TCP rendezvous
  /// mesh (default off — same-host engines keep the shm rings).
  static bool defaultTcpExchange();

 private:
  struct Worker {
    pid_t pid = -1;  // -1 for remote tcp workers (not ours to reap)
    Channel fd;      // coordinator end: socketpair, or the tcp control dial
  };

  /// Forks (or, for kTcp, rendezvouses) the workers if they are not running
  /// yet. Throws ShardError if the backend already failed (a worker died
  /// earlier).
  void start();
  /// The kTcp half of start(): listens, forks local workers (unless
  /// tcpRemote_), collects one control hello per shard, answers with the
  /// mesh roster (+ SETUP frames for remote attaches).
  void startTcp();
  /// Body of a locally forked kTcp worker: dial the rendezvous, handshake,
  /// form the mesh, run the command loop.
  void tcpWorkerMain(std::size_t s, std::uint16_t port, std::uint64_t epoch,
                     int deadlineMs);
  /// Marks the backend failed, best-effort shuts down and reaps every
  /// worker, and throws ShardError built from `what`.
  [[noreturn]] void fail(const std::string& what);
  /// Runs `io` and converts any ShardError into a backend failure.
  template <typename Fn>
  auto guarded(Fn&& io) -> decltype(io());
  void shutdownWorkers() noexcept;
  /// Reads one ack report per worker and rethrows the lowest failed
  /// shard's error.
  void awaitAcks();
  /// Reads one per-machine word-block frame per worker (FETCH_KERNEL /
  /// FETCH_BLOCKS replies) and rethrows the lowest failed shard's error.
  std::vector<std::vector<Word>> collectBlocks();

  /// Runs shard s's command loop (worker_loop.hpp) in the child after
  /// building its WorkerConfig and the fork-snapshot state (kernel table
  /// copy, the shard's BlockStore slice). `peers` is this worker's row of
  /// the exchange mesh.
  void runSnapshotWorker(std::size_t s, Channel& ctrl,
                         std::vector<WireFd>& peers, int meshTimeoutMs);

  std::size_t numMachines_;
  std::size_t shards_;
  std::size_t threadsPerShard_;
  const Topology* topology_;
  Transport transport_;
  /// kTcp awaits `mpcspan_worker` attaches instead of forking
  /// (MPCSPAN_TCP_REMOTE=1 with an explicit or env-selected kTcp; never
  /// for the shm fallback).
  bool tcpRemote_ = false;
  /// Round epoch of the STEP conversation, incremented per attempt (aborts
  /// included) in lockstep with every worker's own counter; stamped into
  /// each kOpStep frame and echoed through reports/verdicts so a desynced
  /// stream fails loudly instead of committing round r's verdict against
  /// round r+1's state.
  std::uint64_t stepEpoch_ = 0;
  bool failed_ = false;
  /// The pre-fork shared-memory arena (kShmRing only); inherited by every
  /// worker's address space, coordinator-held for teardown.
  std::unique_ptr<ShmArena> shmArena_;
  const std::vector<KernelRegistration>* kernels_;  // owner: RoundEngine
  BlockStore* blocks_;                              // owner: RoundEngine
  std::vector<Worker> workers_;
};

}  // namespace mpcspan::runtime::shard
