#include "runtime/round_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/shard/sharded_engine.hpp"

namespace mpcspan::runtime {

RoundEngine::RoundEngine(EngineConfig cfg, std::unique_ptr<Topology> topology)
    : numMachines_(cfg.numMachines),
      topology_(std::move(topology)),
      pool_(cfg.threads),
      store_(cfg.numMachines) {
  if (numMachines_ == 0)
    throw std::invalid_argument("RoundEngine: numMachines must be positive");
  if (!topology_) throw std::invalid_argument("RoundEngine: null topology");
  inboxes_.resize(numMachines_);

  // Backend selection (the engine factory): 1 shard keeps the in-process
  // path below; more partitions the machines over resident worker
  // processes, which fork once (lazily, at the first sharded operation, so
  // kernels/blocks registered until then cross with the fork snapshot),
  // splitting the configured lane count across the workers. The
  // coordinator keeps its full-width pool_ anyway — kernel rounds bypass
  // it, but coordinator-built exchange() rounds deliver on it and
  // consumers run their host-side compute through pool()/parallelFor()
  // between rounds. ThreadPool spawns its lanes lazily on first use, and
  // returns from that spawn only once every lane runs its loop, so the
  // workers may fork from a coordinator whose pool is already live.
  std::size_t shards =
      cfg.shards == 0 ? shard::ShardedEngine::defaultShards() : cfg.shards;
  shards = std::min(shards, numMachines_);
  if (shards > 1) {
    const std::size_t perShard =
        std::max<std::size_t>(1, pool_.numThreads() / shards);
    shard_ = std::make_unique<shard::ShardedEngine>(
        numMachines_, shards, perShard, topology_.get(), &kernels_, &store_,
        cfg.transport);
  }
}

RoundEngine::~RoundEngine() = default;

std::size_t RoundEngine::numShards() const {
  return shard_ ? shard_->numShards() : 1;
}

Transport RoundEngine::transport() const {
  return shard_ ? shard_->transport() : Transport::kDefault;
}

std::vector<std::vector<Delivery>> RoundEngine::exchange(
    std::vector<std::vector<Message>> outboxes) {
  if (outboxes.size() != numMachines_)
    throw std::invalid_argument("RoundEngine: outboxes size mismatch");
  // The coordinator holds every outbox of a coordinator-built round, so it
  // is delivered here on every engine, sharded or not: it reads no worker
  // state and leaves the resident inboxes alone.
  return deliver(std::move(outboxes), /*freePlacement=*/false);
}

std::vector<std::vector<Delivery>> RoundEngine::deliver(
    std::vector<std::vector<Message>> outboxes, bool freePlacement) {
  // Index pass (serial, no payload movement): per-destination list of
  // (src, outbox position), naturally in (src, position) order, plus the
  // per-destination word sums the topology's receive half checks.
  struct Ref {
    std::uint32_t src;
    std::uint32_t pos;
  };
  std::vector<std::vector<Ref>> byDst(numMachines_);
  const bool wantSums = !freePlacement && topology_->needsInboundSums();
  std::vector<std::uint64_t> received(wantSums ? numMachines_ : 0, 0);
  for (std::size_t src = 0; src < numMachines_; ++src) {
    const auto& outbox = outboxes[src];
    for (std::size_t pos = 0; pos < outbox.size(); ++pos) {
      const std::size_t dst = outbox[pos].dst;
      if (dst >= numMachines_)
        throw std::invalid_argument("RoundEngine: message to unknown machine");
      byDst[dst].push_back({static_cast<std::uint32_t>(src),
                            static_cast<std::uint32_t>(pos)});
      if (wantSums) received[dst] += outbox[pos].payload.size();
    }
  }

  // A free data-placement round is deliver-all, unvalidated and uncharged.
  const std::size_t roundWords =
      freePlacement ? 0 : topology_->validate(numMachines_, outboxes, received);
  const bool priorityWrite =
      !freePlacement && topology_->mode() == Topology::Mode::kPriorityWrite;

  // Materialize inboxes in parallel: each destination is owned by exactly
  // one loop index, and every message has exactly one destination, so the
  // payload moves below are disjoint — delivery order is fixed by the index
  // pass, not by the schedule.
  std::vector<std::vector<Delivery>> inbox(numMachines_);
  pool_.parallelFor(numMachines_, [&](std::size_t d) {
    const auto& refs = byDst[d];
    if (refs.empty()) return;
    const std::size_t take = priorityWrite ? 1 : refs.size();
    inbox[d].reserve(take);
    for (std::size_t i = 0; i < take; ++i)
      inbox[d].push_back(
          {refs[i].src, std::move(outboxes[refs[i].src][refs[i].pos].payload)});
  });

  if (!freePlacement) ledger_.noteRound(roundWords);
  return inbox;
}

void RoundEngine::step(const StepFn& fn) {
  if (shard_)
    throw std::logic_error(
        "RoundEngine::step(StepFn): a closure cannot run inside shard worker "
        "processes — on a sharded engine register a kernel (registerKernel) "
        "and drive it with step(KernelId)");
  std::vector<std::vector<Message>> outboxes(numMachines_);
  pool_.parallelFor(numMachines_,
                    [&](std::size_t m) { outboxes[m] = fn(m, inboxes_[m]); });
  inboxes_ = deliver(std::move(outboxes), /*freePlacement=*/false);
}

// --- Registered kernels. ---

KernelId RoundEngine::registerKernel(std::string name, KernelFactory factory) {
  if (name.empty())
    throw std::invalid_argument("registerKernel: empty kernel name");
  if (findKernel(name).valid())
    throw std::invalid_argument("registerKernel: name already registered: " +
                                name);
  if (!factory && !findGlobalKernel(name))
    throw std::invalid_argument(
        "registerKernel: '" + name +
        "' has no factory and is not globally registered");
  const KernelId id{kernels_.size()};
  kernels_.push_back({std::move(name), std::move(factory)});
  kernelInstances_.emplace_back();
  if (shard_ && shard_->started()) {
    const KernelRegistration& reg = kernels_.back();
    if (reg.factory && !findGlobalKernel(reg.name)) {
      const std::string unreachable = reg.name;
      kernels_.pop_back();
      kernelInstances_.pop_back();
      throw std::logic_error(
          "registerKernel: the resident workers already forked, so the "
          "factory for '" +
          unreachable +
          "' cannot reach them — register it before the engine's first "
          "sharded operation, or globally (GlobalKernelRegistrar)");
    }
    try {
      shard_->registerKernel(id.index, reg.name);  // workers resolve + ack
    } catch (...) {
      // A worker could not resolve/construct the kernel. Ids are
      // append-only on every side (a partially-successful announcement may
      // have landed in some workers), so keep the dead slot but tombstone
      // its name — a corrected retry registers the same name under a fresh
      // id, and nothing can ever step the dead one.
      kernels_[id.index].name = "!failed " + kernels_[id.index].name;
      throw;
    }
  }
  return id;
}

KernelId RoundEngine::findKernel(const std::string& name) const {
  for (std::size_t i = 0; i < kernels_.size(); ++i)
    if (kernels_[i].name == name) return KernelId{i};
  return KernelId{};
}

StepKernel& RoundEngine::ensureKernelInstance(KernelId kernel) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  auto& instance = kernelInstances_[kernel.index];
  if (!instance) {
    const KernelRegistration& reg = kernels_[kernel.index];
    KernelFactory factory = reg.factory;
    if (!factory) {
      const KernelFactory* global = findGlobalKernel(reg.name);
      if (!global)
        throw std::invalid_argument("RoundEngine: kernel '" + reg.name +
                                    "' is not globally registered");
      factory = *global;
    }
    instance = factory();
    if (!instance)
      throw std::runtime_error("RoundEngine: kernel '" + reg.name +
                               "': factory returned null");
  }
  return *instance;
}

void RoundEngine::step(KernelId kernel, std::vector<Word> args) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  if (shard_) {
    std::size_t roundWords = 0;
    shard_->stepKernel(kernel.index, args, roundWords);
    ledger_.noteRound(roundWords);
    return;
  }
  inboxes_ = deliver(runKernelWave(kernel, args), /*freePlacement=*/false);
}

std::vector<std::vector<Message>> RoundEngine::runKernelWave(
    KernelId kernel, const std::vector<Word>& args) {
  StepKernel& ker = ensureKernelInstance(kernel);
  std::vector<std::vector<Message>> outboxes(numMachines_);
  pool_.parallelFor(numMachines_, [&](std::size_t m) {
    outboxes[m] = ker.step(
        KernelCtx{m, numMachines_, inboxes_[m], args, store_});
  });
  return outboxes;
}

void RoundEngine::stepShuffle(KernelId kernel, std::vector<Word> args) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  if (shard_) {
    std::size_t ignoredWords = 0;
    shard_->stepKernel(kernel.index, args, ignoredWords, /*freePlacement=*/true);
    return;
  }
  inboxes_ = deliver(runKernelWave(kernel, args), /*freePlacement=*/true);
}

void RoundEngine::stepLocal(KernelId kernel, std::vector<Word> args) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  if (shard_) {
    shard_->localKernel(kernel.index, args);
    return;
  }
  StepKernel& ker = ensureKernelInstance(kernel);
  pool_.parallelFor(numMachines_, [&](std::size_t m) {
    ker.local(KernelCtx{m, numMachines_, inboxes_[m], args, store_});
  });
}

std::vector<std::vector<Word>> RoundEngine::fetchKernel(
    KernelId kernel, std::vector<Word> args) {
  if (kernel.index >= kernels_.size())
    throw std::invalid_argument("RoundEngine: unknown kernel id");
  if (shard_) return shard_->fetchKernel(kernel.index, args);
  StepKernel& ker = ensureKernelInstance(kernel);
  std::vector<std::vector<Word>> out(numMachines_);
  pool_.parallelFor(numMachines_, [&](std::size_t m) {
    out[m] = ker.fetch(KernelCtx{m, numMachines_, inboxes_[m], args, store_});
  });
  return out;
}

// --- Worker-owned blocks. ---

std::uint64_t RoundEngine::createBlocks(
    std::vector<std::vector<Word>> perMachine) {
  if (perMachine.size() != numMachines_)
    throw std::invalid_argument("createBlocks: perMachine size mismatch");
  const std::uint64_t handle = nextBlockHandle_++;
  if (shard_ && shard_->started()) {
    shard_->storeBlocks(handle, std::move(perMachine));
    return handle;
  }
  // In-process, or staged for the fork snapshot (the resident workers adopt
  // the store's contents when they start).
  store_.create(handle);
  for (std::size_t m = 0; m < numMachines_; ++m)
    store_.block(handle, m) = std::move(perMachine[m]);
  return handle;
}

std::vector<std::vector<Word>> RoundEngine::readBlocks(std::uint64_t handle) {
  if (shard_ && shard_->started())
    return shard_->fetchBlocks(handle);
  std::vector<std::vector<Word>> out(numMachines_);
  for (std::size_t m = 0; m < numMachines_; ++m)
    out[m] = store_.block(handle, m).toVector();
  return out;
}

void RoundEngine::freeBlocks(std::uint64_t handle) {
  if (shard_ && shard_->started()) {
    shard_->freeBlocks(handle);
    return;
  }
  store_.erase(handle);
}

}  // namespace mpcspan::runtime
