// The sharded multi-process RoundEngine backend: cross-shard equivalence
// (1-shard, N-shard, 1-thread, N-thread kernel-round runs of one workload
// are bit-identical — rounds, traffic ledger, delivery contents — on all
// three topologies, and equal to the same rounds built coordinator-side),
// coordinator-built exchange() rounds staying in-process (they never fork
// a worker), the resident-worker protocol (fork once, pid stability,
// kernel-owned state, worker-lifecycle failure modes), the round barrier's
// failure modes, the closure step's in-process-only contract, and the
// facades running sharded end-to-end.
#include "runtime/shard/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "cclique/clique.hpp"
#include "graph/generators.hpp"
#include "inbox_probe.hpp"
#include "mpc/dist_spanner.hpp"
#include "mpc/simulator.hpp"
#include "pram/pram.hpp"
#include "runtime/kernel.hpp"
#include "runtime/round_engine.hpp"
#include "spanner/baswana_sen.hpp"

namespace mpcspan {
namespace {

using runtime::CliqueTopology;
using runtime::Delivery;
using runtime::EngineConfig;
using runtime::KernelId;
using runtime::Message;
using runtime::MpcTopology;
using runtime::PramTopology;
using runtime::RoundEngine;
using runtime::Topology;
using runtime::Transport;
using runtime::shard::ShardedEngine;
using runtime::shard::ShardError;

/// Flattened inboxes of every round plus the ledger, for cross-backend
/// comparison.
struct Trace {
  std::vector<Word> flat;
  std::size_t rounds = 0;
  std::size_t words = 0;
  std::size_t maxRound = 0;

  friend bool operator==(const Trace&, const Trace&) = default;
};

void recordRound(Trace& trace, const std::vector<std::vector<Delivery>>& inbox) {
  for (const auto& deliveries : inbox)
    for (const Delivery& d : deliveries) {
      trace.flat.push_back(d.src);
      trace.flat.insert(trace.flat.end(), d.payload.begin(), d.payload.end());
    }
}

void finishTrace(Trace& trace, RoundEngine& eng) {
  trace.rounds = eng.rounds();
  trace.words = eng.totalWordsSent();
  trace.maxRound = eng.maxRoundWords();
}

/// Replays coordinator-built outboxes as a kernel round. The args carry
/// the whole round — per source machine a message count, then (dst,
/// length, payload words) per message — and every machine emits its own
/// outbox, so on a sharded engine the messages leave from and land in the
/// resident workers (cross-shard sections, worker-side validation, the
/// barrier), not the coordinator.
class ReplayKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.replay"; }

  std::vector<Message> step(const runtime::KernelCtx& ctx) override {
    const std::vector<Word>& a = ctx.args;
    std::size_t i = 0;
    for (std::size_t m = 0; m < ctx.machine; ++m)
      for (Word count = a[i++]; count > 0; --count) i += 2 + a[i + 1];
    std::vector<Message> out;
    for (Word count = a[i++]; count > 0; --count) {
      out.push_back({a[i], runtime::Payload(a.data() + i + 2, a[i + 1])});
      i += 2 + a[i + 1];
    }
    return out;
  }

  static std::vector<Word> pack(const std::vector<std::vector<Message>>& out) {
    std::vector<Word> args;
    for (const auto& outbox : out) {
      args.push_back(outbox.size());
      for (const Message& msg : outbox) {
        args.push_back(msg.dst);
        args.push_back(msg.payload.size());
        args.insert(args.end(), msg.payload.begin(), msg.payload.end());
      }
    }
    return args;
  }
};

/// How a workload's rounds reach the engine: as coordinator-built
/// exchange() rounds (in-process on every engine), or replayed by
/// ReplayKernel as kernel rounds (inside the workers when sharded).
enum class Route { kExchange, kKernel };

using RoundFn = std::function<std::vector<std::vector<Message>>(int round)>;

/// Runs `rounds` rounds of makeRound's outboxes through `route` and traces
/// every round's deliveries plus the ledger. `forked` reports whether the
/// engine started its shard workers.
Trace drive(RoundEngine& eng, int rounds, Route route,
            const RoundFn& makeRound, bool* forked) {
  const KernelId replay = eng.registerKernel(
      ReplayKernel::kernelName(),
      [] { return std::make_unique<ReplayKernel>(); });
  Trace trace;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::vector<Message>> out = makeRound(round);
    if (route == Route::kExchange) {
      recordRound(trace, eng.exchange(std::move(out)));
    } else {
      eng.step(replay, ReplayKernel::pack(out));
      recordRound(trace, test_support::residentInboxes(eng));
    }
  }
  finishTrace(trace, eng);
  if (forked)
    *forked = eng.shardBackend() != nullptr && eng.shardBackend()->started();
  return trace;
}

/// Deterministic all-to-all MPC workload with mixed payload sizes (1-word
/// fast path and heap spills).
Trace runMpcWorkload(std::size_t threads, std::size_t shards,
                     Route route = Route::kKernel, bool* forked = nullptr) {
  const std::size_t p = 16;
  RoundEngine eng(EngineConfig{p, threads, shards},
                  std::make_unique<MpcTopology>(6 * p));
  EXPECT_EQ(eng.numShards(), shards == 0 ? 1u : shards);
  std::uint64_t h = 42;
  return drive(eng, 8, route, [&](int) {
    std::vector<std::vector<Message>> out(p);
    for (std::size_t src = 0; src < p; ++src)
      for (std::size_t k = 0; k < 3; ++k) {
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t dst = (src + 1 + (h >> 33) % (p - 1)) % p;
        if (k == 0)
          out[src].push_back({dst, {h}});  // single word: inline payload
        else
          out[src].push_back({dst, {h, h ^ src, h >> 7}});
      }
    return out;
  }, forked);
}

TEST(ShardedEngine, MpcWorkloadBitIdenticalAcrossShardsAndThreads) {
  const Trace base = runMpcWorkload(1, 1, Route::kExchange);
  EXPECT_EQ(base.rounds, 8u);
  EXPECT_EQ(base, runMpcWorkload(1, 1)) << "in-process kernel rounds";
  for (std::size_t shards : {2u, 3u, 4u, 16u})
    EXPECT_EQ(base, runMpcWorkload(1, shards)) << shards << " shards";
  EXPECT_EQ(base, runMpcWorkload(4, 4)) << "4 threads x 4 shards";
  EXPECT_EQ(base, runMpcWorkload(3, 2)) << "3 threads x 2 shards";
}

/// Clique workload: every node sends one word to a few distinct peers.
Trace runCliqueWorkload(std::size_t threads, std::size_t shards,
                        Route route = Route::kKernel, bool* forked = nullptr) {
  const std::size_t n = 12;
  RoundEngine eng(EngineConfig{n, threads, shards},
                  std::make_unique<CliqueTopology>());
  return drive(eng, 6, route, [&](int r) {
    const int round = r + 1;
    std::vector<std::vector<Message>> out(n);
    for (std::size_t src = 0; src < n; ++src)
      for (int j = 0; j < 3; ++j)  // offsets round + {0,4,8}: distinct mod 12
        out[src].push_back(
            {(src + static_cast<std::size_t>(round + j * 4)) % n,
             {src * 1000 + static_cast<std::size_t>(round * 10 + j)}});
    return out;
  }, forked);
}

TEST(ShardedEngine, CliqueWorkloadBitIdenticalAcrossShards) {
  const Trace base = runCliqueWorkload(1, 1, Route::kExchange);
  EXPECT_EQ(base, runCliqueWorkload(1, 1)) << "in-process kernel rounds";
  for (std::size_t shards : {2u, 4u})
    EXPECT_EQ(base, runCliqueWorkload(2, shards)) << shards << " shards";
}

/// PRAM workload: concurrent single-word writes; Priority-CRCW resolution
/// (lowest writer id) must be identical shard-count independent.
Trace runPramWorkload(std::size_t threads, std::size_t shards,
                      Route route = Route::kKernel, bool* forked = nullptr) {
  const std::size_t n = 10;
  RoundEngine eng(EngineConfig{n, threads, shards},
                  std::make_unique<PramTopology>());
  return drive(eng, 5, route, [&](int round) {
    std::vector<std::vector<Message>> out(n);
    for (std::size_t src = 0; src < n; ++src)
      out[src].push_back({(src * 7 + static_cast<std::size_t>(round)) % 3,
                          {src * 100 + static_cast<std::size_t>(round)}});
    return out;
  }, forked);
}

TEST(ShardedEngine, PramPriorityWritesBitIdenticalAcrossShards) {
  const Trace base = runPramWorkload(1, 1, Route::kExchange);
  // All attempted writes count as work even though only one lands per cell.
  EXPECT_EQ(base.words, 5u * 10u);
  EXPECT_EQ(base, runPramWorkload(1, 1)) << "in-process kernel rounds";
  for (std::size_t shards : {2u, 4u, 5u})
    EXPECT_EQ(base, runPramWorkload(2, shards)) << shards << " shards";
}

TEST(ShardedEngine, ExchangeOnlyEngineNeverForksAndMatchesInProcess) {
  // A coordinator-built round holds every outbox at the coordinator and
  // touches no worker state, so it is delivered in-process on a sharded
  // engine too: the workers never fork, and the rounds, ledger and
  // contents equal the in-process engine's.
  bool forked = true;
  const Trace mpc = runMpcWorkload(1, 1, Route::kExchange);
  EXPECT_EQ(mpc, runMpcWorkload(2, 4, Route::kExchange, &forked));
  EXPECT_FALSE(forked) << "mpc";
  const Trace clique = runCliqueWorkload(1, 1, Route::kExchange);
  EXPECT_EQ(clique, runCliqueWorkload(2, 3, Route::kExchange, &forked));
  EXPECT_FALSE(forked) << "clique";
  const Trace pram = runPramWorkload(1, 1, Route::kExchange);
  EXPECT_EQ(pram, runPramWorkload(2, 5, Route::kExchange, &forked));
  EXPECT_FALSE(forked) << "pram";
}

TEST(ShardedEngine, KernelRoundAfterExchangeRoundsForksCleanly) {
  // Exchange rounds run on the coordinator's pool, so its lanes are live
  // when the first kernel round forks the workers. The fork must neither
  // deadlock (a child inheriting a lane's half-started runtime state) nor
  // change a result.
  auto run = [](std::size_t threads, std::size_t shards) {
    const std::size_t n = 12;
    RoundEngine eng(EngineConfig{n, threads, shards},
                    std::make_unique<MpcTopology>(64));
    const KernelId replay = eng.registerKernel(
        ReplayKernel::kernelName(),
        [] { return std::make_unique<ReplayKernel>(); });
    Trace trace;
    for (int round = 0; round < 4; ++round) {
      std::vector<std::vector<Message>> out(n);
      for (std::size_t src = 0; src < n; ++src)
        out[src].push_back({(src * 5 + static_cast<std::size_t>(round)) % n,
                            {src, static_cast<Word>(round)}});
      if (round < 2) {
        recordRound(trace, eng.exchange(std::move(out)));
        if (eng.shardBackend()) {
          EXPECT_FALSE(eng.shardBackend()->started());
        }
      } else {
        eng.step(replay, ReplayKernel::pack(out));
        recordRound(trace, test_support::residentInboxes(eng));
      }
    }
    if (eng.shardBackend()) {
      EXPECT_TRUE(eng.shardBackend()->started());
    }
    finishTrace(trace, eng);
    return trace;
  };
  const Trace base = run(1, 1);
  EXPECT_EQ(base.rounds, 4u);
  EXPECT_EQ(base, run(4, 2)) << "4 threads x 2 shards";
  EXPECT_EQ(base, run(4, 3)) << "4 threads x 3 shards";
}

TEST(ShardedEngine, ClosureStepIsInProcessOnly) {
  // A closure cannot follow machines into the worker processes: on a
  // sharded engine step(StepFn) throws std::logic_error (pointing at
  // registered kernels) before running anything, and the engine stays
  // usable for kernel and exchange rounds.
  RoundEngine eng(EngineConfig{8, 2, 4}, std::make_unique<MpcTopology>(8));
  ASSERT_EQ(eng.numShards(), 4u);
  bool ran = false;
  try {
    eng.step([&](std::size_t, const std::vector<Delivery>&) {
      ran = true;
      return std::vector<Message>{};
    });
    ADD_FAILURE() << "closure step on a sharded engine did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("registerKernel"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.rounds(), 0u);
  std::vector<std::vector<Message>> out(8);
  out[0].push_back({7, {1}});
  EXPECT_EQ(eng.exchange(std::move(out))[7].size(), 1u);
  EXPECT_EQ(eng.rounds(), 1u);
}

TEST(ShardedEngine, CapacityViolationAbortsTheRoundLoudly) {
  // A coordinator-built round is validated where its outboxes are, at the
  // coordinator, on a sharded engine as in-process.
  RoundEngine eng(EngineConfig{4, 1, 2}, std::make_unique<MpcTopology>(2));
  std::vector<std::vector<Message>> out(4);
  out[3].push_back({0, {1, 2, 3}});  // sender over budget
  EXPECT_THROW(eng.exchange(std::move(out)), CapacityError);
  // The engine survives an aborted round.
  std::vector<std::vector<Message>> ok(4);
  ok[0].push_back({3, {7}});
  const auto inbox = eng.exchange(std::move(ok));
  EXPECT_EQ(inbox[3].size(), 1u);
  EXPECT_EQ(eng.rounds(), 1u);  // the aborted round was never charged
}

TEST(ShardedEngine, UnknownDestinationThrowsInvalidArgument) {
  RoundEngine eng(EngineConfig{4, 1, 2}, std::make_unique<MpcTopology>(8));
  std::vector<std::vector<Message>> out(4);
  out[1].push_back({99, {1}});
  EXPECT_THROW(eng.exchange(std::move(out)), std::invalid_argument);
}

TEST(ShardedEngine, ShardCountClampsToMachines) {
  RoundEngine eng(EngineConfig{3, 1, 64}, std::make_unique<MpcTopology>(8));
  EXPECT_EQ(eng.numShards(), 3u);
}

TEST(ShardedEngine, EnvVarSelectsDefaultShardCount) {
  ASSERT_EQ(::setenv("MPCSPAN_SHARDS", "2", 1), 0);
  {
    RoundEngine eng(EngineConfig{8, 1, 0}, std::make_unique<MpcTopology>(8));
    EXPECT_EQ(eng.numShards(), 2u);
  }
  ASSERT_EQ(::unsetenv("MPCSPAN_SHARDS"), 0);
  {
    RoundEngine eng(EngineConfig{8, 1, 0}, std::make_unique<MpcTopology>(8));
    EXPECT_EQ(eng.numShards(), 1u);
  }
}

TEST(ShardedEngine, PartitionIsBalancedAndContiguous) {
  MpcTopology topo(8);
  ShardedEngine se(10, 4, 1, &topo);
  EXPECT_EQ(se.shardBegin(0), 0u);
  EXPECT_EQ(se.shardEnd(0), 3u);
  EXPECT_EQ(se.shardEnd(1), 6u);
  EXPECT_EQ(se.shardEnd(2), 8u);
  EXPECT_EQ(se.shardEnd(3), 10u);
  EXPECT_THROW(ShardedEngine(10, 1, 1, &topo), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(10, 11, 1, &topo), std::invalid_argument);
}

// --- Resident workers: fork-once lifetime, kernel-owned state, failure
// modes. ---

/// Counter kernel: per-machine state that must live across rounds wherever
/// the machine lives. Every round, machine m adds its inbox sum plus one to
/// its counter and sends the counter to (m + 1) % n.
class CounterKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.counter"; }

  std::vector<Message> step(const runtime::KernelCtx& ctx) override {
    ensureSized(ctx);
    Word sum = 1;
    for (const Delivery& d : ctx.inbox) sum += d.payload.front();
    counters_[ctx.machine] += sum;
    if (!ctx.args.empty() && ctx.args[0] == 1 && ctx.machine == 2)
      throw std::runtime_error("counter kernel boom");
    return {{(ctx.machine + 1) % ctx.numMachines, {counters_[ctx.machine]}}};
  }

  std::vector<Word> fetch(const runtime::KernelCtx& ctx) override {
    ensureSized(ctx);
    return {counters_[ctx.machine]};
  }

 private:
  void ensureSized(const runtime::KernelCtx& ctx) {
    std::call_once(sized_, [&] { counters_.resize(ctx.numMachines); });
  }

  std::once_flag sized_;
  std::vector<Word> counters_;
};

TEST(ResidentWorkers, ForkOncePidsStableAcrossRounds) {
  RoundEngine eng(EngineConfig{8, 1, 4},
                  std::make_unique<MpcTopology>(16));
  const auto* backend = eng.shardBackend();
  ASSERT_NE(backend, nullptr);
  EXPECT_FALSE(backend->started());  // lazy: nothing forked yet

  const KernelId k = eng.registerKernel(
      CounterKernel::kernelName(),
      [] { return std::make_unique<CounterKernel>(); });
  auto oneRound = [&] { eng.step(k); };
  oneRound();
  const std::vector<pid_t> pids = backend->workerPids();
  ASSERT_EQ(pids.size(), 4u);
  for (int r = 0; r < 5; ++r) oneRound();
  EXPECT_EQ(backend->workerPids(), pids) << "workers must fork exactly once";
  EXPECT_EQ(eng.rounds(), 6u);
}

TEST(ResidentWorkers, KernelStatePersistsAndMatchesInProcessBitForBit) {
  // Same kernel workload on the in-process engine and on 2/4-shard resident
  // engines: after >= 3 rounds the kernel-owned counters and the resident
  // inboxes must agree bit for bit, on a deliver-all and a priority-write
  // topology.
  auto run = [](std::size_t threads, std::size_t shards, bool pram) {
    const std::size_t n = 8;
    RoundEngine eng(EngineConfig{n, threads, shards},
                    pram ? std::unique_ptr<Topology>(new PramTopology())
                         : std::unique_ptr<Topology>(new MpcTopology(16)));
    const KernelId k = eng.registerKernel(
        CounterKernel::kernelName(),
        [] { return std::make_unique<CounterKernel>(); });
    for (int r = 0; r < 4; ++r) eng.step(k);
    struct Result {
      std::vector<std::vector<Word>> counters;
      std::vector<Word> flatInboxes;
      std::size_t rounds, words, maxRound;

      bool operator==(const Result&) const = default;
    } res;
    res.counters = eng.fetchKernel(k);
    for (const auto& inbox : test_support::residentInboxes(eng))
      for (const Delivery& d : inbox) {
        res.flatInboxes.push_back(d.src);
        res.flatInboxes.insert(res.flatInboxes.end(), d.payload.begin(),
                               d.payload.end());
      }
    res.rounds = eng.rounds();
    res.words = eng.totalWordsSent();
    res.maxRound = eng.maxRoundWords();
    return res;
  };
  for (const bool pram : {false, true}) {
    const auto base = run(1, 1, pram);
    EXPECT_EQ(base.rounds, 4u);
    EXPECT_EQ(base, run(1, 2, pram)) << "2 shards, pram=" << pram;
    EXPECT_EQ(base, run(2, 4, pram)) << "4 shards, pram=" << pram;
  }
}

TEST(ResidentWorkers, KernelThrowMidRoundAbortsRoundForAllShards) {
  RoundEngine eng(EngineConfig{8, 1, 4},
                  std::make_unique<MpcTopology>(16));
  const KernelId k = eng.registerKernel(
      CounterKernel::kernelName(),
      [] { return std::make_unique<CounterKernel>(); });
  eng.step(k);
  EXPECT_EQ(eng.rounds(), 1u);
  const auto inboxesBefore = test_support::residentInboxes(eng);
  // Machine 2 (shard 1) throws: the round aborts for every shard — ledger
  // untouched, no delivery of the aborted round lands in any resident
  // inbox — and the engine (and its workers) stay usable. Kernel state
  // mutated before the throw is unspecified per machine (exactly like
  // in-process captured state: whether a machine's step ran before the
  // abort depends on the schedule), which is why the bit-identicality
  // guarantee only covers committed rounds.
  EXPECT_THROW(eng.step(k, {1}), std::runtime_error);
  EXPECT_EQ(eng.rounds(), 1u);
  const auto inboxesAfter = test_support::residentInboxes(eng);
  ASSERT_EQ(inboxesBefore.size(), inboxesAfter.size());
  for (std::size_t m = 0; m < inboxesBefore.size(); ++m) {
    ASSERT_EQ(inboxesBefore[m].size(), inboxesAfter[m].size());
    for (std::size_t i = 0; i < inboxesBefore[m].size(); ++i) {
      EXPECT_EQ(inboxesBefore[m][i].src, inboxesAfter[m][i].src);
      EXPECT_EQ(inboxesBefore[m][i].payload, inboxesAfter[m][i].payload);
    }
  }
  eng.step(k);
  EXPECT_EQ(eng.rounds(), 2u);
}

TEST(ResidentWorkers, CapacityViolationInKernelRoundKeepsType) {
  // A kernel round that violates the topology must abort with the same
  // loud CapacityError as the in-process engine, workers still alive.
  class Flooder final : public runtime::StepKernel {
   public:
    std::vector<Message> step(const runtime::KernelCtx& ctx) override {
      if (!ctx.args.empty())
        return {{0, {1, 2, 3, 4, 5}}};  // 8 machines x 5 words > cap 16
      return {{0, {1}}};
    }
  };
  RoundEngine eng(EngineConfig{8, 1, 4},
                  std::make_unique<MpcTopology>(16));
  const KernelId k = eng.registerKernel(
      "test.flooder", [] { return std::make_unique<Flooder>(); });
  EXPECT_THROW(eng.step(k, {1}), CapacityError);
  EXPECT_EQ(eng.rounds(), 0u);
  eng.step(k);  // workers survived the abort
  EXPECT_EQ(eng.rounds(), 1u);
}

TEST(ResidentWorkers, UnknownDestinationFromLastShardRejectedOnBothTransports) {
  // Phase A of a kernel round bounds-checks every destination inside the
  // worker that owns the source, before any section leaves it. The rogue
  // source is the last machine, so the last shard's worker must catch it:
  // every backend rejects the round with the in-process std::invalid_argument,
  // charges nothing, and runs the next round normally.
  class Stray final : public runtime::StepKernel {
   public:
    std::vector<Message> step(const runtime::KernelCtx& ctx) override {
      if (!ctx.args.empty() && ctx.machine == ctx.numMachines - 1)
        return {{ctx.numMachines + 3, {1}}};
      return {{(ctx.machine + 5) % ctx.numMachines, {ctx.machine}}};
    }
  };
  struct Outcome {
    std::string err;
    Trace trace;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [](std::size_t shards, Transport transport) {
    RoundEngine eng(EngineConfig{8, 1, shards, transport},
                    std::make_unique<MpcTopology>(16));
    const KernelId k = eng.registerKernel(
        "test.stray", [] { return std::make_unique<Stray>(); });
    eng.step(k);
    Outcome out;
    try {
      eng.step(k, {1});
      ADD_FAILURE() << "a message past the last machine was delivered";
    } catch (const std::invalid_argument& e) {
      out.err = e.what();
    }
    eng.step(k);
    recordRound(out.trace, test_support::residentInboxes(eng));
    finishTrace(out.trace, eng);
    return out;
  };
  const Outcome base = run(1, Transport::kDefault);
  EXPECT_EQ(base.trace.rounds, 2u);
  EXPECT_NE(base.err.find("unknown machine"), std::string::npos) << base.err;
  EXPECT_EQ(run(4, Transport::kShmRing), base) << "shm";
  EXPECT_EQ(run(4, Transport::kTcp), base) << "tcp";
}

TEST(ResidentWorkers, PostForkRegistrationResolvesViaGlobalRegistry) {
  // The workers fork at the first round; a kernel registered afterwards can
  // only reach them by name through the process-global registry (that is
  // how distSort's kernels appear mid-run, e.g. in the tradeoff
  // contraction).
  runtime::registerGlobalKernel("test.counter.global", [] {
    return std::make_unique<CounterKernel>();
  });
  auto firstRound = [](RoundEngine& e) {
    e.step(e.registerKernel(CounterKernel::kernelName(), [] {
      return std::make_unique<CounterKernel>();
    }));
  };
  RoundEngine eng(EngineConfig{8, 1, 4},
                  std::make_unique<MpcTopology>(16));
  firstRound(eng);  // forks the workers
  ASSERT_TRUE(eng.shardBackend()->started());
  const KernelId k = eng.registerKernel("test.counter.global");
  for (int r = 0; r < 3; ++r) eng.step(k);
  RoundEngine ref(EngineConfig{8, 1, 1}, std::make_unique<MpcTopology>(16));
  firstRound(ref);
  const KernelId rk = ref.registerKernel("test.counter.global");
  for (int r = 0; r < 3; ++r) ref.step(rk);
  EXPECT_EQ(eng.fetchKernel(k), ref.fetchKernel(rk));
  // An unresolvable post-fork registration fails loudly at registration.
  EXPECT_THROW(
      eng.registerKernel("test.unresolvable",
                         [] { return std::make_unique<CounterKernel>(); }),
      std::logic_error);
}

TEST(ResidentWorkers, WorkerDeathBetweenRoundsSurfacesAsShardError) {
  auto eng = std::make_unique<RoundEngine>(EngineConfig{8, 1, 4},
                                           std::make_unique<MpcTopology>(16));
  const KernelId k = eng->registerKernel(
      CounterKernel::kernelName(),
      [] { return std::make_unique<CounterKernel>(); });
  auto oneRound = [&] { eng->step(k); };
  oneRound();
  const std::vector<pid_t> pids = eng->shardBackend()->workerPids();
  ASSERT_EQ(pids.size(), 4u);
  // Kill a worker while the engine is idle between rounds; the next round
  // must throw ShardError (not hang, not return garbage), and the engine
  // stays failed afterwards.
  ASSERT_EQ(::kill(pids[2], SIGKILL), 0);
  EXPECT_THROW(oneRound(), ShardError);
  EXPECT_THROW(oneRound(), ShardError);
  // Destruction must leave no zombies: every worker pid is fully reaped, so
  // a later waitpid knows nothing about them.
  eng.reset();
  for (const pid_t pid : pids) {
    int st = 0;
    EXPECT_EQ(::waitpid(pid, &st, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(ResidentWorkers, DestructorReapsIdleWorkers) {
  std::vector<pid_t> pids;
  {
    RoundEngine eng(EngineConfig{6, 1, 3},
                    std::make_unique<MpcTopology>(16));
    eng.step(eng.registerKernel(CounterKernel::kernelName(), [] {
      return std::make_unique<CounterKernel>();
    }));
    pids = eng.shardBackend()->workerPids();
    ASSERT_EQ(pids.size(), 3u);
  }
  for (const pid_t pid : pids) {
    int st = 0;
    EXPECT_EQ(::waitpid(pid, &st, WNOHANG), -1) << "worker leaked: " << pid;
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(ResidentWorkers, ExchangeRoundsLeaveKernelInboxesAlone) {
  // Coordinator-built exchange rounds return their deliveries without
  // touching the machines' resident inboxes, exactly as in-process: kernel
  // rounds interleaved with them see only their own previous deliveries.
  auto run = [](std::size_t shards) {
    RoundEngine eng(EngineConfig{6, 1, shards},
                    std::make_unique<MpcTopology>(32));
    const KernelId k = eng.registerKernel(
        CounterKernel::kernelName(),
        [] { return std::make_unique<CounterKernel>(); });
    std::vector<Word> flat;
    for (int r = 0; r < 3; ++r) {
      eng.step(k);
      std::vector<std::vector<Message>> out(6);
      for (std::size_t m = 0; m < 6; ++m)
        out[m].push_back({(m + 2) % 6, {m * 100 + static_cast<Word>(r)}});
      for (const auto& inbox : eng.exchange(std::move(out)))
        for (const Delivery& d : inbox) {
          flat.push_back(d.src);
          flat.insert(flat.end(), d.payload.begin(), d.payload.end());
        }
    }
    for (const auto& inbox : test_support::residentInboxes(eng))
      for (const Delivery& d : inbox) {
        flat.push_back(d.src);
        flat.insert(flat.end(), d.payload.begin(), d.payload.end());
      }
    for (const auto& c : eng.fetchKernel(k))
      flat.insert(flat.end(), c.begin(), c.end());
    flat.push_back(eng.rounds());
    flat.push_back(eng.totalWordsSent());
    return flat;
  };
  const auto base = run(1);
  EXPECT_EQ(base, run(2));
  EXPECT_EQ(base, run(3));
}

// --- Facades running sharded, end to end. ---

TEST(ShardedFacades, DistributedBaswanaSenMatchesHostAcrossShards) {
  Rng rng(1234);
  const Graph g = gnmRandom(150, 600, rng, {WeightModel::kUniform, 20.0}, true);
  const SpannerResult host = buildBaswanaSen(g, {.k = 3, .seed = 7});

  const MpcConfig cfg = MpcConfig::forInput(8 * g.numEdges(), 0.6, 3.0);
  MpcSimulator sharded(cfg, /*threads=*/2, /*shards=*/3);
  ASSERT_EQ(sharded.numShards(), 3u);
  const DistSpannerResult dist = buildDistributedBaswanaSen(sharded, g, 3, 7);
  EXPECT_EQ(dist.edges, host.edges);

  MpcSimulator inProcess(cfg, /*threads=*/1, /*shards=*/1);
  const DistSpannerResult ref = buildDistributedBaswanaSen(inProcess, g, 3, 7);
  EXPECT_EQ(dist.edges, ref.edges);
  EXPECT_EQ(dist.simulatorRounds, ref.simulatorRounds);
  EXPECT_EQ(dist.wordsMoved, ref.wordsMoved);
}

TEST(ShardedFacades, CliqueDirectRoundMatchesAcrossShards) {
  auto run = [](std::size_t shards) {
    CongestedClique cc(9, /*threads=*/1, shards);
    std::vector<CongestedClique::Msg> msgs;
    for (VertexId v = 0; v < 9; ++v)
      for (VertexId d = 0; d < 9; ++d)
        if (d != v && (v + d) % 3 == 0) msgs.push_back({v, d, {v * 10 + d}});
    return cc.directRound(msgs);
  };
  const auto base = run(1);
  EXPECT_EQ(base, run(3));
  EXPECT_EQ(base, run(9));
}

TEST(ShardedFacades, LeaderForestOnShardedPramEngineMatchesHost) {
  const std::size_t n = 48;
  LeaderForest plain(n);
  LeaderForest backed(n);
  RoundEngine eng(EngineConfig{n, 2, 4}, std::make_unique<PramTopology>());
  backed.attachEngine(&eng);
  std::uint64_t h = 7;
  for (int i = 0; i < 120; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto a = static_cast<std::uint32_t>((h >> 33) % n);
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto b = static_cast<std::uint32_t>((h >> 33) % n);
    EXPECT_EQ(plain.merge(a, b), backed.merge(a, b));
  }
  for (std::uint32_t v = 0; v < n; ++v)
    EXPECT_EQ(plain.leader(v), backed.leader(v));
  EXPECT_EQ(eng.rounds(), static_cast<std::size_t>(backed.depthCharged()));
  EXPECT_EQ(eng.totalWordsSent(),
            static_cast<std::size_t>(backed.workCharged()));
}

}  // namespace
}  // namespace mpcspan
