// RoundEngine — the unified round-synchronous runtime behind the MPC,
// Congested Clique, and PRAM substrates.
//
// The engine owns a set of simulated machines, a Topology transport policy
// (what a legal round looks like in the chosen model), a work-stealing
// thread pool that steps machines in parallel *within* a round, and the
// round/traffic ledger. With EngineConfig::shards > 1 (or MPCSPAN_SHARDS)
// the machines are partitioned over resident worker processes instead —
// forked once per engine and driven by control frames over one fused,
// pipelined round barrier (see runtime/shard/sharded_engine.hpp) — behind
// this same interface. Only what lives on the workers crosses to them:
// kernel rounds and phases, and blocks. A coordinator-built round
// (exchange()) holds every outbox already, so it is delivered in-process on
// every engine and never forks a worker. Message delivery is deterministic: every inbox holds
// its deliveries in (source id, send position) order regardless of the
// thread or shard count, so 1-thread, N-thread, 1-shard, and N-shard runs
// of the same workload are bit-identical — rounds, traffic totals, and
// message contents. The in-process engine is the reference.
//
// Two ways to step the machines:
//   - registered kernels (runtime/kernel.hpp): registerKernel gives the
//     engine a named factory, step(KernelId, args) drives one round, and
//     the kernel instance lives *where the machines live* — inside each
//     resident worker — owning per-machine state (inboxes, BlockStore
//     blocks) across rounds without ever re-shipping it. This is the only
//     stepping API of a sharded engine;
//   - the closure step(StepFn): in-process only. A closure and its
//     captures cannot follow machines into another process, so on a
//     sharded engine it throws std::logic_error.
//
// MpcSimulator and CongestedClique are thin model-specific facades over
// this class; see src/runtime/README.md for the design.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "runtime/kernel.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace mpcspan::runtime {

namespace shard {
class ShardedEngine;
}

struct EngineConfig {
  std::size_t numMachines = 0;
  /// Lanes of the stepping pool, including the caller; 0 selects the
  /// default (MPCSPAN_THREADS env var, else hardware concurrency).
  std::size_t threads = 0;
  /// Worker processes the machines are partitioned over. 1 runs everything
  /// in-process (the single-node special case); 0 selects the default
  /// (MPCSPAN_SHARDS env var, else 1). Clamped to numMachines. Sharded or
  /// not, the same workload is bit-identical — rounds, ledger, contents.
  std::size_t shards = 0;
  /// Cross-shard transport. kDefault resolves to kTcp under
  /// MPCSPAN_TCP_EXCHANGE=1, else kShmRing; an explicit value wins. kTcp
  /// forms the mesh by rendezvous through a listener instead of fd
  /// inheritance, so its workers may also be remote processes
  /// (MPCSPAN_TCP_REMOTE=1 + mpcspan_worker --connect). A kShmRing engine
  /// whose shared-memory arena cannot be created runs on kTcp over
  /// loopback instead.
  Transport transport = Transport::kDefault;
};

class RoundEngine {
 public:
  RoundEngine(EngineConfig cfg, std::unique_ptr<Topology> topology);
  ~RoundEngine();

  std::size_t numMachines() const { return numMachines_; }
  /// Worker processes executing the rounds (1 = in-process).
  std::size_t numShards() const;
  /// The resolved cross-shard transport (kShmRing or kTcp — after any shm
  /// fallback); kDefault when the engine runs in-process.
  Transport transport() const;
  /// The multi-process backend, null when in-process (introspection: worker
  /// pids, shard ranges).
  const shard::ShardedEngine* shardBackend() const { return shard_.get(); }
  const Topology& topology() const { return *topology_; }
  ThreadPool& pool() { return pool_; }

  std::size_t rounds() const { return ledger_.rounds; }
  std::size_t totalWordsSent() const { return ledger_.wordsSent; }
  std::size_t maxRoundWords() const { return ledger_.maxRoundWords; }

  /// Charges rounds / traffic whose execution is proven rather than
  /// simulated message-by-message (e.g. Lenzen routing, spanner collection).
  void chargeRounds(std::size_t n) { ledger_.rounds += n; }
  void chargeTraffic(std::size_t words) { ledger_.wordsSent += words; }

  /// One synchronous communication round over coordinator-built outboxes:
  /// bounds-checks destinations, validates the outboxes against the
  /// topology, delivers, and updates the ledger. inbox[d] holds deliveries
  /// ordered by (src, position in src's outbox). Under
  /// Topology::Mode::kPriorityWrite only the first delivery per destination
  /// lands. Outboxes are consumed. Runs in-process on every engine (a
  /// sharded one included — it touches no worker state) and leaves the
  /// machines' resident inboxes alone.
  std::vector<std::vector<Delivery>> exchange(
      std::vector<std::vector<Message>> outboxes);

  /// Machine-centric round: runs step(machine, inbox) for every machine in
  /// parallel on the pool (the inbox is the previous step's deliveries),
  /// then exchanges the produced outboxes. The deliveries are stored and
  /// readable via inbox() until the next step. In-process only: on a
  /// sharded engine this throws std::logic_error — register a kernel and
  /// step(KernelId) instead.
  using StepFn = std::function<std::vector<Message>(
      std::size_t machine, const std::vector<Delivery>& inbox)>;
  void step(const StepFn& fn);
  const std::vector<Delivery>& inbox(std::size_t machine) const {
    return inboxes_[machine];
  }

  // --- Registered kernels: the resident step path. ---

  /// Registers a kernel under `name`. With a factory, the registration is
  /// engine-local: it crosses into the resident workers with their one fork
  /// snapshot, so it must happen before the engine's first sharded
  /// operation (afterwards the name must also be globally registered —
  /// GlobalKernelRegistrar — or this throws). With no factory the name is
  /// resolved against the global registry on both sides of the fork, any
  /// time. Names are unique per engine.
  KernelId registerKernel(std::string name, KernelFactory factory = {});
  /// The id `name` was registered under, or an invalid id.
  KernelId findKernel(const std::string& name) const;

  /// One kernel round: the kernel steps every machine where that machine
  /// lives (in-process, or inside its resident worker), the outboxes are
  /// validated/delivered under the topology exactly like exchange(), and
  /// the deliveries land in the machines' resident inboxes (worker-owned
  /// when sharded — they are not shipped back; a kernel's fetch() sees
  /// them as ctx.inbox, so fetchKernel() is how to observe them). `args` is broadcast to every machine.
  /// A kernel throw aborts the round for all shards: ledger and inboxes
  /// untouched, engine and workers still usable.
  void step(KernelId kernel, std::vector<Word> args = {});
  /// A free data-placement round: the kernel steps every machine and the
  /// messages are delivered (all of them, (src, send-position) order) into
  /// the resident inboxes, but nothing is validated against the topology
  /// and the ledger is never charged. This is the worker-to-worker
  /// equivalent of host-side data management (createBlocks/readBlocks are
  /// free for the same reason): re-laying out worker-owned state between
  /// simulated supersteps without shipping it through the coordinator.
  /// Never use it for algorithmic communication — that must go through
  /// step(), where the model's limits are enforced.
  void stepShuffle(KernelId kernel, std::vector<Word> args = {});
  /// A free local phase: kernel.local on every machine, no round, no
  /// messages, no ledger (the "local computation is free" half of the MPC
  /// model).
  void stepLocal(KernelId kernel, std::vector<Word> args = {});
  /// Per-machine kernel.fetch readout (free; host-side collection).
  std::vector<std::vector<Word>> fetchKernel(KernelId kernel,
                                             std::vector<Word> args = {});

  // --- Worker-owned block storage (DistVector backing). ---

  /// Ships perMachine[m] to machine m's owner and returns the handle.
  /// Blocks live beside the kernels: in-process in the engine's own store,
  /// sharded inside the resident workers (created before the workers start,
  /// they simply cross with the fork snapshot).
  std::uint64_t createBlocks(std::vector<std::vector<Word>> perMachine);
  std::vector<std::vector<Word>> readBlocks(std::uint64_t handle);
  void freeBlocks(std::uint64_t handle);

  /// Deterministic parallel loop on the engine's pool. fn must write to
  /// disjoint outputs; then the result is identical for every thread count.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool_.parallelFor(n, fn);
  }

 private:
  StepKernel& ensureKernelInstance(KernelId kernel);
  /// In-process kernel compute wave: kernel.step on every machine on the
  /// pool (step's and stepShuffle's shared half).
  std::vector<std::vector<Message>> runKernelWave(KernelId kernel,
                                                  const std::vector<Word>& args);
  /// The one in-process delivery routine (exchange(), the closure step,
  /// and the in-process half of step(KernelId) and stepShuffle()): bounds
  /// check, index by destination, validate, materialize in (src,
  /// send-position) order, charge the ledger. `freePlacement` mirrors the
  /// workers' flag: no validation, no priority-write drop, no ledger.
  std::vector<std::vector<Delivery>> deliver(
      std::vector<std::vector<Message>> outboxes, bool freePlacement);

  std::size_t numMachines_;
  std::unique_ptr<Topology> topology_;
  ThreadPool pool_;
  Accounting ledger_;
  std::vector<std::vector<Delivery>> inboxes_;  // in-process rounds only
  std::vector<KernelRegistration> kernels_;
  std::vector<std::unique_ptr<StepKernel>> kernelInstances_;  // in-process
  BlockStore store_;  // in-process blocks; pre-start staging when sharded
  std::uint64_t nextBlockHandle_ = 1;
  /// Multi-process backend; null when shards resolve to 1 (in-process).
  std::unique_ptr<shard::ShardedEngine> shard_;
};

/// RAII lease on a createBlocks() handle for kernel drivers that stage
/// worker-resident blocks across several phases: the blocks are freed on
/// scope exit — including a thrown, aborted round, which by contract leaves
/// the engine usable, so a driver that retries must not accumulate dead
/// blocks in the workers — unless release() hands ownership elsewhere
/// (e.g. DistVector::adopt).
class BlockLease {
 public:
  BlockLease(RoundEngine& eng, std::uint64_t handle)
      : eng_(&eng), handle_(handle) {}
  BlockLease(const BlockLease&) = delete;
  BlockLease& operator=(const BlockLease&) = delete;
  ~BlockLease() {
    if (!eng_) return;
    try {
      eng_->freeBlocks(handle_);
    } catch (...) {
      // A dead shard backend already surfaced loudly; freeing afterwards
      // must not terminate (same policy as DistVector's destructor).
    }
  }

  std::uint64_t handle() const { return handle_; }
  std::uint64_t release() {
    eng_ = nullptr;
    return handle_;
  }

 private:
  RoundEngine* eng_;
  std::uint64_t handle_;
};

/// Finds or registers kernel K on the engine. odr-using the global
/// registrar plants K's factory in every process at static initialization,
/// so a resident worker that forked long before this call can still
/// construct K by name. K needs a static kernelName() and a default
/// constructor (the GlobalKernelRegistrar contract).
template <class K>
KernelId ensureKernel(RoundEngine& eng) {
  (void)&globalKernelRegistrar<K>;
  const std::string name = K::kernelName();
  if (const KernelId id = eng.findKernel(name); id.valid()) return id;
  return eng.registerKernel(name);
}

}  // namespace mpcspan::runtime
