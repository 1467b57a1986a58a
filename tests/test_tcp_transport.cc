// The TCP shard transport: kernel rounds over a rendezvous-formed loopback
// mesh must be bit-identical to the in-process reference (rounds, ledger,
// kernel state, resident inbox contents) across shard and thread counts on
// all three topologies;
// oversized ~1.6 MB frames stream through the poll-paced channels; and
// every failure mode of a real network — refused dial, accept timeout, a
// stray client speaking garbage, a mesh dial from a stale epoch, a peer
// dying mid-exchange — surfaces as ShardError within the deadline, never a
// hang, and never leaks a worker process.
#include "runtime/shard/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "inbox_probe.hpp"
#include "runtime/round_engine.hpp"
#include "runtime/shard/sharded_engine.hpp"
#include "runtime/shard/transport.hpp"
#include "runtime/shard/wire.hpp"

namespace mpcspan {
namespace {

using runtime::CliqueTopology;
using runtime::Delivery;
using runtime::EngineConfig;
using runtime::KernelCtx;
using runtime::KernelId;
using runtime::Message;
using runtime::MpcTopology;
using runtime::PramTopology;
using runtime::RoundEngine;
using runtime::StepKernel;
using runtime::Topology;
using runtime::Transport;
using runtime::shard::Channel;
using runtime::shard::formTcpMesh;
using runtime::shard::readControlHello;
using runtime::shard::ShardError;
using runtime::shard::tcpConnect;
using runtime::shard::TcpListener;
using runtime::shard::TcpPeerAddr;
using runtime::shard::WireFd;

/// Deterministic cross-shard-heavy kernel (the test_shm_exchange probe):
/// per-machine owned state feeds the next round's emissions, so any
/// divergence in routing or merge order compounds across rounds.
class TcpProbeKernel final : public StepKernel {
 public:
  static std::string kernelName() { return "test.tcpprobe"; }

  std::vector<Message> step(const KernelCtx& ctx) override {
    ensureSized(ctx);
    const Word mode = ctx.args.empty() ? 0 : ctx.args[0];
    const std::size_t n = ctx.numMachines;
    const std::size_t m = ctx.machine;
    Word sum = 1;
    for (const Delivery& d : ctx.inbox) sum += 3 * d.src + d.payload.front();
    state_[m] += sum;
    const Word r = ++round_[m];
    std::vector<Message> out;
    if (mode == 0) {
      out.push_back({(m + r) % n, {state_[m], state_[m] ^ m, r}});
      out.push_back({(m * 3 + 1) % n, {state_[m]}});
      if (m % 2 == 0) out.push_back({(m + n - 1) % n, {r, static_cast<Word>(m)}});
    } else if (mode == 1) {
      out.push_back({(m + r) % n, {state_[m]}});
    } else {
      out.push_back({(m * 5 + r) % 4, {state_[m]}});
    }
    return out;
  }

  std::vector<Word> fetch(const KernelCtx& ctx) override {
    ensureSized(ctx);
    return {state_[ctx.machine], round_[ctx.machine]};
  }

 private:
  void ensureSized(const KernelCtx& ctx) {
    std::call_once(sized_, [&] {
      state_.resize(ctx.numMachines);
      round_.resize(ctx.numMachines);
    });
  }

  std::once_flag sized_;
  std::vector<Word> state_;
  std::vector<Word> round_;
};

std::unique_ptr<Topology> makeTopology(int mode) {
  if (mode == 0) return std::make_unique<MpcTopology>(64);
  if (mode == 1) return std::make_unique<CliqueTopology>();
  return std::make_unique<PramTopology>();
}

/// Everything observable after a kernel-round workload.
struct Result {
  std::vector<std::vector<Word>> fetched;
  std::vector<Word> flatInboxes;
  std::size_t rounds = 0, words = 0, maxRound = 0;

  friend bool operator==(const Result&, const Result&) = default;
};

Result observe(RoundEngine& eng, KernelId k) {
  Result res;
  res.fetched = eng.fetchKernel(k);
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
}

Result runWorkload(int mode, std::size_t threads, std::size_t shards,
                   Transport transport) {
  const std::size_t n = 12;
  RoundEngine eng(EngineConfig{n, threads, shards, transport},
                  makeTopology(mode));
  const KernelId k = eng.registerKernel(
      TcpProbeKernel::kernelName(),
      [] { return std::make_unique<TcpProbeKernel>(); });
  for (int i = 0; i < 5; ++i) eng.step(k, {static_cast<Word>(mode)});
  // One free data-placement round rides the same exchange machinery.
  eng.stepShuffle(k, {static_cast<Word>(mode)});
  return observe(eng, k);
}

TEST(TcpTransport, BitIdenticalToInProcessOnAllTopologies) {
  for (const int mode : {0, 1, 2}) {
    const Result base = runWorkload(mode, 1, 1, Transport::kDefault);
    EXPECT_EQ(base.rounds, 5u) << "mode " << mode;
    for (const std::size_t shards : {2u, 4u})
      for (const std::size_t threads : {1u, 2u})
        EXPECT_EQ(base, runWorkload(mode, threads, shards, Transport::kTcp))
            << "mode " << mode << ", " << shards << " shards x " << threads
            << " threads";
  }
}

/// Emits one ~1.6 MB payload per machine per round: thousands of loopback
/// segments per frame, so the poll-paced nonblocking channel I/O must
/// stream and backpressure correctly in both directions at once.
class BigFrameKernel final : public StepKernel {
 public:
  static constexpr std::size_t kWords = 200000;  // 1.6 MB of payload

  std::vector<Message> step(const KernelCtx& ctx) override {
    ensureSized(ctx);
    const std::size_t n = ctx.numMachines;
    const std::size_t m = ctx.machine;
    Word seed = m + 1;
    for (const Delivery& d : ctx.inbox) seed += d.payload[0] + d.payload[kWords / 2];
    seen_[m] += seed;
    std::vector<Word> pay(kWords);
    for (std::size_t w = 0; w < kWords; ++w)
      pay[w] = seed * 2654435761u + w;
    return {{(m + 1) % n, std::move(pay)}};
  }

  std::vector<Word> fetch(const KernelCtx& ctx) override {
    ensureSized(ctx);
    return {seen_[ctx.machine]};
  }

 private:
  void ensureSized(const KernelCtx& ctx) {
    std::call_once(sized_, [&] { seen_.resize(ctx.numMachines); });
  }

  std::once_flag sized_;
  std::vector<Word> seen_;
};

Result runBigFrames(std::size_t shards, Transport transport) {
  const std::size_t n = 4;
  RoundEngine eng(EngineConfig{n, 1, shards, transport},
                  std::make_unique<MpcTopology>(BigFrameKernel::kWords));
  const KernelId k = eng.registerKernel(
      "test.bigframe", [] { return std::make_unique<BigFrameKernel>(); });
  eng.step(k);
  eng.step(k);
  return observe(eng, k);
}

TEST(TcpTransport, BigFramesStreamOverLoopback) {
  const Result base = runBigFrames(1, Transport::kDefault);
  for (const std::size_t shards : {2u, 4u})
    EXPECT_EQ(base, runBigFrames(shards, Transport::kTcp))
        << shards << " shards, tcp, 1.6 MB frames";
}

// --- Failure modes. Every one must be a ShardError within the deadline. ---

TEST(TcpTransport, RefusedDialThrowsShardError) {
  // Grab an ephemeral port the kernel just proved free, close the
  // listener, and dial it: connection refused, immediately.
  std::uint16_t deadPort = 0;
  {
    TcpListener l(0);
    deadPort = l.port();
  }
  EXPECT_THROW(tcpConnect("127.0.0.1", deadPort, 2000), ShardError);
}

TEST(TcpTransport, AcceptDeadlineExpiresAsShardError) {
  TcpListener l(0);
  EXPECT_THROW(l.accept(/*deadlineMs=*/50), ShardError);
}

TEST(TcpTransport, StrayClientGarbageRejectedAtControlHello) {
  TcpListener l(0);
  std::thread stray([&] {
    try {
      WireFd fd = tcpConnect("127.0.0.1", l.port(), 2000);
      const char junk[32] = "GET / HTTP/1.1\r\n\r\n";
      fd.writeAll(junk, sizeof junk);
    } catch (...) {
      // The acceptor may slam the door first; either way is a pass.
    }
  });
  Channel ch(l.accept(2000), 2000);
  EXPECT_THROW(readControlHello(ch), ShardError);
  stray.join();
}

TEST(TcpTransport, StaleEpochMeshDialRejectedBothSides) {
  // Shard 1 dials shard 0's mesh listener carrying the wrong epoch: the
  // acceptor must reject the handshake as stale, and the dialer — whose
  // ack never arrives — must fail its own handshake rather than hang.
  constexpr std::uint64_t kGoodEpoch = 0x1234;
  constexpr std::uint64_t kBadEpoch = 0x9999;
  TcpListener mesh0(0);
  TcpListener mesh1(0);
  std::vector<TcpPeerAddr> roster{{"127.0.0.1", mesh0.port()},
                                  {"127.0.0.1", mesh1.port()}};

  std::exception_ptr acceptErr;
  std::thread acceptor([&] {
    try {
      formTcpMesh(/*self=*/0, kGoodEpoch, mesh0, roster, 4000);
    } catch (...) {
      acceptErr = std::current_exception();
    }
  });
  EXPECT_THROW(formTcpMesh(/*self=*/1, kBadEpoch, mesh1, roster, 4000),
               ShardError);
  acceptor.join();
  ASSERT_TRUE(acceptErr);
  EXPECT_THROW(std::rethrow_exception(acceptErr), ShardError);
}

TEST(TcpTransport, PeerDeathMidExchangeSurfacesShardErrorForAll) {
  // The injected fault (MPCSPAN_TEST_PEER_DIE_SHARD, read in the worker
  // loop) kills shard 1 right before its STEP report — mid mesh exchange
  // from every peer's point of view. The engine must fail loudly within
  // the tcp deadline (not hang), stay failed, and reap every worker.
  ASSERT_EQ(::setenv("MPCSPAN_TEST_PEER_DIE_SHARD", "1", 1), 0);
  std::vector<pid_t> pids;
  {
    RoundEngine eng(EngineConfig{8, 1, 4, Transport::kTcp},
                    std::make_unique<MpcTopology>(32));
    const KernelId k = eng.registerKernel(
        TcpProbeKernel::kernelName(),
        [] { return std::make_unique<TcpProbeKernel>(); });
    // Fork the workers on a kernel phase that does not reach the fault
    // hook (it fires only before a STEP report).
    eng.stepLocal(k);
    pids = eng.shardBackend()->workerPids();
    ASSERT_EQ(pids.size(), 4u);
    EXPECT_THROW(eng.step(k), ShardError);
    EXPECT_THROW(eng.step(k), ShardError);  // the backend stays failed
  }
  ASSERT_EQ(::unsetenv("MPCSPAN_TEST_PEER_DIE_SHARD"), 0);
  for (const pid_t pid : pids) {
    int st = 0;
    EXPECT_EQ(::waitpid(pid, &st, WNOHANG), -1) << "worker leaked: " << pid;
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(TcpTransport, BlocksAndExchangeRoundsBesideTheTcpBackend) {
  // Worker-resident blocks ride the tcp backend — staged ones cross with
  // the fork snapshot, later ones over the wire — and a coordinator-built
  // exchange round beside the live workers is delivered in-process without
  // disturbing their resident inboxes: identical to the in-process engine.
  RoundEngine tcp(EngineConfig{6, 1, 3, Transport::kTcp},
                  std::make_unique<MpcTopology>(64));
  RoundEngine ref(EngineConfig{6, 1, 1},
                  std::make_unique<MpcTopology>(64));
  std::vector<std::vector<Word>> flat(2);
  auto record = [&flat](int e, const std::vector<std::vector<Delivery>>& in) {
    for (const auto& inbox : in)
      for (const Delivery& d : inbox) {
        flat[e].push_back(d.src);
        flat[e].insert(flat[e].end(), d.payload.begin(), d.payload.end());
      }
  };
  for (int e = 0; e < 2; ++e) {
    RoundEngine* eng = e == 0 ? &tcp : &ref;
    std::vector<std::vector<Word>> staged(6), shipped(6);
    for (std::size_t m = 0; m < 6; ++m) {
      staged[m] = {m * 10 + 1, m * 10 + 2};
      shipped[m] = {m * 7, m * 7 + 3, m};
    }
    const std::uint64_t h1 = eng->createBlocks(staged);
    const KernelId k = eng->registerKernel(
        TcpProbeKernel::kernelName(),
        [] { return std::make_unique<TcpProbeKernel>(); });
    eng->step(k);  // forks the tcp workers
    const std::uint64_t h2 = eng->createBlocks(shipped);
    std::vector<std::vector<Message>> out(6);
    for (std::size_t m = 0; m < 6; ++m)
      out[m].push_back({(m + 1) % 6, {m, m ^ 7}});
    record(e, eng->exchange(std::move(out)));
    record(e, test_support::residentInboxes(*eng));
    EXPECT_EQ(eng->readBlocks(h1), staged);
    EXPECT_EQ(eng->readBlocks(h2), shipped);
    eng->freeBlocks(h1);
    eng->freeBlocks(h2);
  }
  EXPECT_TRUE(tcp.shardBackend()->started());
  EXPECT_EQ(flat[0], flat[1]);
  EXPECT_EQ(tcp.rounds(), ref.rounds());
  EXPECT_EQ(tcp.totalWordsSent(), ref.totalWordsSent());
}

}  // namespace
}  // namespace mpcspan
