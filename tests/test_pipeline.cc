// The fused, pipelined shard barrier: workers exchange and stage a round's
// deliveries before its verdict lands, so a kernel throw during the
// speculative phase must abort with no state leak and no zombies on both
// transports; a custom topology is enforced through the same
// validateSources + validateInbound contract in-process and on both
// transports; and the per-round communication budget fails a trickling
// peer instead of letting it extend the round unbounded.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/round_engine.hpp"
#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/sharded_engine.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"
#include "runtime/topology.hpp"
#include "util/deadline.hpp"

namespace mpcspan {
namespace {

using runtime::Delivery;
using runtime::EngineConfig;
using runtime::KernelCtx;
using runtime::KernelId;
using runtime::Message;
using runtime::MpcTopology;
using runtime::RoundEngine;
using runtime::StepKernel;
using runtime::Topology;
using runtime::Transport;
using runtime::shard::ShardError;
using runtime::shard::WireReader;
using runtime::shard::WireWriter;
using util::DeadlineBudget;

const char* transportName(Transport t) {
  return t == Transport::kTcp ? "tcp" : "shm";
}

// --- A custom topology, enforced identically on every backend. ---

/// Deterministic cross-shard-heavy kernel whose per-round emissions are a
/// pure function of the inbox, so a correctly-discarded abort leaves no
/// trace and any divergence in delivery order or speculative state
/// compounds across rounds. args[0] picks the topology-legal shape.
class PipeProbeKernel final : public StepKernel {
 public:
  static std::string kernelName() { return "test.pipeprobe"; }

  std::vector<Message> step(const KernelCtx& ctx) override {
    const Word mode = ctx.args.empty() ? 0 : ctx.args[0];
    const std::size_t n = ctx.numMachines;
    const std::size_t m = ctx.machine;
    Word sum = m + 1;
    for (const Delivery& d : ctx.inbox) sum += 3 * d.src + d.payload.front();
    std::vector<Message> out;
    if (mode == 0) {
      // MPC: mixed single- and multi-word fan-out.
      out.push_back({(m + sum) % n, {sum, sum ^ m}});
      out.push_back({(m * 3 + 1) % n, {sum}});
    } else if (mode == 1) {
      // Clique: one single-word message per ordered pair.
      out.push_back({(m + 1 + sum % (n - 1)) % n, {sum}});
    } else {
      // PRAM: concurrent single-word writes, priority-CRCW resolved.
      out.push_back({(m * 5 + sum) % 4, {sum}});
    }
    return out;
  }

  std::vector<Word> fetch(const KernelCtx& ctx) override {
    Word sum = ctx.machine;
    for (const Delivery& d : ctx.inbox) sum += 7 * d.src + d.payload.front();
    return {sum};
  }
};

/// Everything observable after a kernel-round workload.
struct Result {
  std::vector<std::vector<Word>> fetched;
  std::vector<Word> flatInboxes;
  std::size_t rounds = 0, words = 0, maxRound = 0;

  friend bool operator==(const Result&, const Result&) = default;
};

Result collect(RoundEngine& eng, KernelId k) {
  Result res;
  res.fetched = eng.fetchKernel(k);
  for (const auto& inbox : eng.snapshotInboxes())
    for (const Delivery& d : inbox) {
      res.flatInboxes.push_back(d.src);
      res.flatInboxes.insert(res.flatInboxes.end(), d.payload.begin(),
                             d.payload.end());
    }
  res.rounds = eng.rounds();
  res.words = eng.totalWordsSent();
  res.maxRound = eng.maxRoundWords();
  return res;
}

/// A custom topology outside the three built-ins: no send limit, a
/// per-machine receive cap. It implements only the two validation halves,
/// and the engine must enforce it the same way in-process and sharded —
/// the source half inside the workers, the receive half at the
/// coordinator over the summed report columns.
class RecvCapTopology final : public Topology {
 public:
  explicit RecvCapTopology(std::size_t cap) : cap_(cap) {}
  const char* name() const override { return "recv-cap"; }
  std::size_t validateSources(
      std::size_t /*numMachines*/,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t /*begin*/) const override {
    std::size_t words = 0;
    for (const auto& out : sliceOutboxes)
      for (const Message& msg : out) words += msg.payload.size();
    return words;
  }
  bool needsInboundSums() const override { return true; }
  void validateInbound(std::size_t numMachines,
                       const std::vector<std::uint64_t>& received)
      const override {
    for (std::size_t m = 0; m < numMachines; ++m)
      if (received[m] > cap_)
        throw CapacityError("recv-cap: machine " + std::to_string(m) +
                            " receives " + std::to_string(received[m]));
  }

 private:
  std::size_t cap_;
};

/// Every machine writes two words to machine 0: 24 words > the cap of 16.
class FloodKernel final : public StepKernel {
 public:
  std::vector<Message> step(const KernelCtx& ctx) override {
    return {{0, {ctx.machine, ctx.machine}}};
  }
};

TEST(Pipeline, CustomReceiveCapEnforcedIdenticallyInProcessAndOnBothTransports) {
  // Legal rounds stay bit-identical; a kernel round and a coordinator-built
  // round that flood machine 0 past its receive cap throw the same
  // CapacityError everywhere, uncharged, and the engine keeps going.
  struct Outcome {
    Result result;
    std::string kernelErr, exchangeErr;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [](std::size_t shards, Transport transport) {
    RoundEngine eng(EngineConfig{12, 1, shards, transport},
                    std::make_unique<RecvCapTopology>(16));
    const KernelId k = eng.registerKernel(
        PipeProbeKernel::kernelName(),
        [] { return std::make_unique<PipeProbeKernel>(); });
    const KernelId flood = eng.registerKernel(
        "test.flood", [] { return std::make_unique<FloodKernel>(); });
    for (int i = 0; i < 3; ++i) eng.step(k, {0});
    Outcome out;
    try {
      eng.step(flood);
    } catch (const CapacityError& e) {
      out.kernelErr = e.what();
    }
    try {
      std::vector<std::vector<Message>> outboxes(12);
      for (std::size_t m = 0; m < 12; ++m) outboxes[m].push_back({0, {m, m}});
      eng.exchange(std::move(outboxes));
    } catch (const CapacityError& e) {
      out.exchangeErr = e.what();
    }
    for (int i = 0; i < 2; ++i) eng.step(k, {0});
    out.result = collect(eng, k);
    return out;
  };
  const Outcome base = run(1, Transport::kDefault);
  EXPECT_EQ(base.result.rounds, 5u);
  EXPECT_FALSE(base.kernelErr.empty()) << "the receive cap was not enforced";
  EXPECT_FALSE(base.exchangeErr.empty()) << "the receive cap was not enforced";
  for (const Transport transport : {Transport::kShmRing, Transport::kTcp})
    for (const std::size_t shards : {2u, 3u})
      EXPECT_EQ(run(shards, transport), base)
          << shards << " shards, " << transportName(transport);
}

// --- Abort semantics during overlap. ---

class OverlapThrower final : public StepKernel {
 public:
  std::vector<Message> step(const KernelCtx& ctx) override {
    if (!ctx.args.empty() && ctx.machine == 5)
      throw std::runtime_error("boom mid-overlap");
    const std::size_t n = ctx.numMachines;
    const std::size_t m = ctx.machine;
    Word sum = m + 3;
    for (const Delivery& d : ctx.inbox) sum += 5 * d.src + d.payload.front();
    return {{(m + sum) % n, {sum}}, {(m * 7 + 2) % n, {sum ^ m}}};
  }

  std::vector<Word> fetch(const KernelCtx& ctx) override {
    Word sum = 0;
    for (const Delivery& d : ctx.inbox) sum += d.src + d.payload.front();
    return {sum};
  }
};

TEST(Pipeline, KernelThrowDuringSpeculativeComputeAbortsCleanly) {
  // The abort lands at round r while the workers have already merged and
  // staged speculative r state into their back buffers. Discarding it must
  // leave the resident inboxes, ledger, and worker processes exactly as
  // before the round — and the rounds after the abort must match an
  // engine that never attempted it.
  for (const Transport transport : {Transport::kShmRing, Transport::kTcp}) {
    RoundEngine ref(EngineConfig{12, 1, 1}, std::make_unique<MpcTopology>(64));
    RoundEngine eng(EngineConfig{12, 1, 4, transport},
                    std::make_unique<MpcTopology>(64));
    const KernelId kr = ref.registerKernel(
        "test.overthrow", [] { return std::make_unique<OverlapThrower>(); });
    const KernelId ke = eng.registerKernel(
        "test.overthrow", [] { return std::make_unique<OverlapThrower>(); });
    ref.step(kr);
    ref.step(kr);
    eng.step(ke);
    eng.step(ke);
    const std::vector<pid_t> pids = eng.shardBackend()->workerPids();
    ASSERT_EQ(pids.size(), 4u);
    const std::size_t wordsBefore = eng.totalWordsSent();
    EXPECT_THROW(eng.step(ke, {1}), std::runtime_error);
    EXPECT_EQ(eng.rounds(), 2u);
    EXPECT_EQ(eng.totalWordsSent(), wordsBefore);
    // Same worker processes — the abort forked nothing and killed nothing.
    EXPECT_EQ(eng.shardBackend()->workerPids(), pids);
    ref.step(kr);
    ref.step(kr);
    eng.step(ke);
    eng.step(ke);
    EXPECT_EQ(collect(eng, ke), collect(ref, kr)) << transportName(transport);
  }
}

// --- The per-round communication budget. ---

TEST(Pipeline, DeadlineBudgetSemantics) {
  {
    const DeadlineBudget unbounded(-1);
    EXPECT_FALSE(unbounded.bounded());
    EXPECT_EQ(unbounded.remainingMs(), -1);
    EXPECT_FALSE(unbounded.expired());
  }
  {
    const DeadlineBudget budget(200);
    EXPECT_TRUE(budget.bounded());
    EXPECT_EQ(budget.totalMs(), 200);
    EXPECT_GT(budget.remainingMs(), 0);
    EXPECT_FALSE(budget.expired());
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_EQ(budget.remainingMs(), 0);  // clamped, never negative
    EXPECT_TRUE(budget.expired());
  }
}

TEST(Pipeline, TricklingPeerExhaustsRoundBudget) {
  // A peer that keeps the connection alive but trickles one byte at a time
  // makes progress on every poll wait — a per-wait timeout would reset
  // forever and the round would stretch to (frame bytes x trickle gap).
  // The shared round budget must fail the exchange once the *total* wait
  // crosses it, while the same trickle without a budget still completes.
  const auto trickle = [](const runtime::shard::WireFd& fd) {
    // A valid empty mesh frame: u64 bodyLen = 8, then u64 rowCount = 0
    // (little-endian) — 16 bytes, one every 50 ms, ~800 ms total.
    std::uint8_t frame[16] = {8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
    for (const std::uint8_t byte : frame) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ASSERT_EQ(::send(fd.fd(), &byte, 1, MSG_NOSIGNAL), 1);
    }
  };
  const std::vector<std::uint64_t> counts(2, 0);
  const std::vector<WireWriter> sections(2);
  {
    auto mesh = runtime::shard::makeMesh(2);
    std::thread peer([&] { trickle(mesh[1][0]); });
    const DeadlineBudget budget(250);
    EXPECT_THROW(runtime::shard::meshExchange(mesh[0], 0, counts, sections,
                                              &budget),
                 ShardError);
    peer.join();
  }
  {
    auto mesh = runtime::shard::makeMesh(2);
    std::thread peer([&] { trickle(mesh[1][0]); });
    std::vector<WireReader> frames =
        runtime::shard::meshExchange(mesh[0], 0, counts, sections);
    peer.join();
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[1].u64(), 0u);  // the trickled frame, intact
  }
}

}  // namespace
}  // namespace mpcspan
