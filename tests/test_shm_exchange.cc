// The shared-memory ring transport: kernel rounds over the shm rings must
// be bit-identical to the in-process engine (rounds, ledger, kernel state,
// resident inbox contents) across shard and thread counts on all three
// topologies; the transport resolves from config and env, and a host whose
// shm arena cannot be created falls back to tcp with identical results;
// oversized
// frames chunk through a tiny ring with backpressure instead of
// deadlocking; a peer death mid-exchange surfaces ShardError for everyone
// and leaves no shm object behind (the arena is unlinked at creation, so
// /dev/shm must stay clean even while engines are alive); and a corrupt
// ring length prefix is rejected as ShardError, never chased out of
// bounds.
#include "runtime/shard/shm_ring.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "runtime/round_engine.hpp"
#include "runtime/shard/peer_mesh.hpp"
#include "runtime/shard/sharded_engine.hpp"
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
using runtime::shard::kMaxFrameBytes;
using runtime::shard::mergeSectionRows;
using runtime::shard::ShardError;
using runtime::shard::ShmArena;
using runtime::shard::WireFd;
using runtime::shard::WireReader;
using runtime::shard::WireWriter;

/// True when /dev/shm holds any mpcspan shm object. The arena unlinks its
/// object the moment it is mapped, so this must hold even while engines
/// are alive — a crashed run can never orphan a segment.
bool shmDirClean() {
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/dev/shm", ec)) {
    if (e.path().filename().string().starts_with("mpcspan")) return false;
  }
  return true;
}

/// Deterministic cross-shard-heavy kernel (the test_peer_exchange probe):
/// per-machine owned state feeds the next round's emissions, so any
/// divergence in routing or merge order compounds across rounds.
class ShmProbeKernel final : public StepKernel {
 public:
  static std::string kernelName() { return "test.shmprobe"; }

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

Result runWorkload(int mode, std::size_t threads, std::size_t shards,
                   Transport transport, Transport* resolved = nullptr) {
  const std::size_t n = 12;
  RoundEngine eng(EngineConfig{n, threads, shards, transport},
                  makeTopology(mode));
  if (resolved) *resolved = eng.transport();
  const KernelId k = eng.registerKernel(
      ShmProbeKernel::kernelName(),
      [] { return std::make_unique<ShmProbeKernel>(); });
  for (int i = 0; i < 5; ++i) eng.step(k, {static_cast<Word>(mode)});
  // One free data-placement round rides the same exchange machinery.
  eng.stepShuffle(k, {static_cast<Word>(mode)});
  return observe(eng, k);
}

TEST(ShmExchange, BitIdenticalToInProcessOnAllTopologies) {
  for (const int mode : {0, 1, 2}) {
    const Result base = runWorkload(mode, 1, 1, Transport::kDefault);
    EXPECT_EQ(base.rounds, 5u) << "mode " << mode;
    for (const std::size_t shards : {2u, 4u})
      for (const std::size_t threads : {1u, 2u})
        EXPECT_EQ(base, runWorkload(mode, threads, shards, Transport::kShmRing))
            << "mode " << mode << ", " << shards << " shards x " << threads
            << " threads";
    EXPECT_EQ(base, runWorkload(mode, 1, 3, Transport::kShmRing))
        << "mode " << mode << ", 3 shards (uneven split)";
  }
  EXPECT_TRUE(shmDirClean());
}

TEST(ShmExchange, TransportSelectionFollowsConfigAndEnv) {
  // This test exercises the kDefault resolution, so neutralize an outer
  // MPCSPAN_TCP_EXCHANGE (the CI tcp leg sets it process-wide) and restore
  // it afterwards for the remaining tests in this binary.
  const char* tcpEnv = std::getenv("MPCSPAN_TCP_EXCHANGE");
  const std::string tcpSaved = tcpEnv ? tcpEnv : "";
  if (tcpEnv) {
    ASSERT_EQ(::unsetenv("MPCSPAN_TCP_EXCHANGE"), 0);
  }
  {
    RoundEngine eng(EngineConfig{8, 1, 2, Transport::kShmRing},
                    std::make_unique<MpcTopology>(16));
    EXPECT_EQ(eng.transport(), Transport::kShmRing);
    // Alive engine, clean /dev/shm: the arena object is already unlinked.
    EXPECT_TRUE(shmDirClean());
  }
  {
    RoundEngine eng(EngineConfig{8, 1, 2, Transport::kTcp},
                    std::make_unique<MpcTopology>(16));
    EXPECT_EQ(eng.transport(), Transport::kTcp);
  }
  {
    RoundEngine eng(EngineConfig{8, 1, 2}, std::make_unique<MpcTopology>(16));
    EXPECT_EQ(eng.transport(), Transport::kShmRing);
  }
  {
    // In-process: no shard transport at all.
    RoundEngine eng(EngineConfig{8, 1, 1}, std::make_unique<MpcTopology>(16));
    EXPECT_EQ(eng.transport(), Transport::kDefault);
  }
  // MPCSPAN_TCP_EXCHANGE=1 switches the default; an explicit value wins.
  ASSERT_EQ(::setenv("MPCSPAN_TCP_EXCHANGE", "1", 1), 0);
  {
    RoundEngine eng(EngineConfig{8, 1, 2}, std::make_unique<MpcTopology>(16));
    EXPECT_EQ(eng.transport(), Transport::kTcp);
  }
  {
    RoundEngine eng(EngineConfig{8, 1, 2, Transport::kShmRing},
                    std::make_unique<MpcTopology>(16));
    EXPECT_EQ(eng.transport(), Transport::kShmRing);
  }
  ASSERT_EQ(::unsetenv("MPCSPAN_TCP_EXCHANGE"), 0);
  if (!tcpSaved.empty()) {
    ASSERT_EQ(::setenv("MPCSPAN_TCP_EXCHANGE", tcpSaved.c_str(), 1), 0);
  }
}

TEST(ShmExchange, UnavailableArenaFallsBackToTcpBitIdentically) {
  // A file-size limit below the arena size makes ShmArena's ftruncate fail
  // with EFBIG (SIGXFSZ ignored) — the same outcome as a host without
  // usable POSIX shm. The limit is set in a forked child so it never
  // reaches the rest of the suite; the child reports through its exit
  // status.
  const Result base = runWorkload(0, 1, 1, Transport::kDefault);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int code = 0;
    try {
      ::unsetenv("MPCSPAN_TCP_EXCHANGE");  // exercise the default transport
      ::signal(SIGXFSZ, SIG_IGN);
      const rlimit lim{4096, 4096};
      if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) std::_Exit(10);
      bool arenaFailed = false;
      try {
        ShmArena probe(2);
      } catch (const ShardError&) {
        arenaFailed = true;
      }
      if (!arenaFailed) std::_Exit(11);  // the fault did not take effect
      Transport resolved = Transport::kDefault;
      const Result got = runWorkload(0, 1, 2, Transport::kDefault, &resolved);
      if (resolved != Transport::kTcp)
        code = 12;
      else if (!(got == base))
        code = 13;
    } catch (...) {
      code = 14;
    }
    std::_Exit(code);
  }
  int st = 0;
  while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {
  }
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 0)
      << "10 setrlimit failed, 11 arena did not fail, 12 engine did not "
         "report tcp, 13 results differ from in-process, 14 exception";
}

/// Emits one ~1.6 MB payload per machine per round — hundreds of ring
/// lengths under MPCSPAN_SHM_RING_BYTES=4096, so every frame must stream
/// chunk by chunk with doorbell backpressure.
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

TEST(ShmExchange, OversizedFramesChunkThroughTinyRingWithBackpressure) {
  ASSERT_EQ(::setenv("MPCSPAN_SHM_RING_BYTES", "4096", 1), 0);
  const Result base = runBigFrames(1, Transport::kDefault);
  for (const std::size_t shards : {2u, 4u})
    EXPECT_EQ(base, runBigFrames(shards, Transport::kShmRing))
        << shards << " shards, shm, 4 KiB ring";
  ASSERT_EQ(::unsetenv("MPCSPAN_SHM_RING_BYTES"), 0);
  EXPECT_TRUE(shmDirClean());
}

TEST(ShmExchange, PeerDeathMidExchangeSurfacesShardErrorForAll) {
  // The injected fault (MPCSPAN_TEST_PEER_DIE_SHARD, read at worker fork)
  // kills shard 1 right before it pre-writes its frames — mid shm exchange
  // from every peer's point of view. Every other worker must observe the
  // dead peer (doorbell EOF, or the coordinator the missing report), the
  // engine must fail loudly (not hang), stay failed, reap every worker,
  // and leave /dev/shm clean.
  ASSERT_EQ(::setenv("MPCSPAN_TEST_PEER_DIE_SHARD", "1", 1), 0);
  std::vector<pid_t> pids;
  {
    RoundEngine eng(EngineConfig{8, 1, 4, Transport::kShmRing},
                    std::make_unique<MpcTopology>(32));
    const KernelId k = eng.registerKernel(
        ShmProbeKernel::kernelName(),
        [] { return std::make_unique<ShmProbeKernel>(); });
    // Fork the workers on a round that does not reach the fault hook.
    std::vector<std::vector<Message>> out(8);
    out[0].push_back({7, {1}});
    eng.exchange(std::move(out));
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
  EXPECT_TRUE(shmDirClean());
}

// --- The ring transport itself, in-process on a tiny arena. ---

/// Builds one single-row section (src -> dst, the given payload).
void fillSection(std::vector<WireWriter>& sections,
                 std::vector<std::uint64_t>& counts, std::size_t peer,
                 std::size_t src, std::size_t dst,
                 const std::vector<Word>& pay) {
  sections[peer].row(src, dst, pay.data(), pay.size());
  counts[peer] = 1;
}

TEST(ShmRing, DirectExchangeRoundTripContiguousAndChunked) {
  // Worker 0 sends a small (in-place view) frame, worker 1 an oversized
  // one (5x the ring) — both directions complete over one 4 KiB ring pair
  // and parse to the exact rows that went in.
  constexpr std::size_t kRing = 4096;
  ShmArena arena(2, kRing);
  auto mesh = runtime::shard::makeMesh(2);
  const std::vector<Word> small{1, 2, 3};
  std::vector<Word> big(kRing * 5 / sizeof(Word));
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 11400714819323198485ull;

  std::vector<std::vector<std::vector<Message>>> got(
      2, std::vector<std::vector<Message>>(2));
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::size_t self = 0; self < 2; ++self) {
    threads.emplace_back([&, self] {
      try {
        std::vector<WireWriter> sections(2);
        std::vector<std::uint64_t> counts(2, 0);
        fillSection(sections, counts, 1 - self, self, 1 - self,
                    self == 0 ? small : big);
        auto frames = runtime::shard::shmExchange(arena, mesh[self], self,
                                                  counts, sections);
        const std::uint64_t count = frames[1 - self].u64();
        ASSERT_EQ(count, 1u);
        mergeSectionRows(frames[1 - self], count, 1 - self, 2 - self, self,
                         self + 1, got[self]);
        arena.releaseInbound(self);
      } catch (...) {
        errors[self] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t self = 0; self < 2; ++self)
    if (errors[self]) std::rethrow_exception(errors[self]);
  ASSERT_EQ(got[1][0].size(), 1u);
  EXPECT_EQ(got[1][0][0].payload, small);
  ASSERT_EQ(got[0][1].size(), 1u);
  EXPECT_EQ(got[0][1][0].payload, big);
}

TEST(ShmRing, CorruptLengthPrefixRejectedAsShardError) {
  // A garbage length prefix (beyond kMaxFrameBytes) planted in the inbound
  // ring must surface as ShardError on the very first pump — never chased
  // as a real frame length.
  constexpr std::size_t kRing = 4096;
  ShmArena arena(2, kRing);
  auto mesh = runtime::shard::makeMesh(2);
  {
    const std::uint64_t bad = kMaxFrameBytes + 1;
    std::memcpy(arena.data(1, 0), &bad, sizeof bad);
    arena.hdr(1, 0).produced.store(sizeof bad, std::memory_order_release);
  }
  std::vector<WireWriter> sections(2);
  std::vector<std::uint64_t> counts(2, 0);
  const std::vector<Word> pay{5};
  fillSection(sections, counts, 1, 0, 1, pay);
  EXPECT_THROW(
      runtime::shard::shmExchange(arena, mesh[0], 0, counts, sections),
      ShardError);

  // A sub-header length (< 8 bytes) is equally implausible.
  ShmArena arena2(2, kRing);
  {
    const std::uint64_t bad = 3;
    std::memcpy(arena2.data(1, 0), &bad, sizeof bad);
    arena2.hdr(1, 0).produced.store(sizeof bad, std::memory_order_release);
  }
  std::vector<WireWriter> s2(2);
  std::vector<std::uint64_t> c2(2, 0);
  fillSection(s2, c2, 1, 0, 1, pay);
  EXPECT_THROW(runtime::shard::shmExchange(arena2, mesh[0], 0, c2, s2),
               ShardError);
}

TEST(ShmRing, RingBytesEnvRoundsToPowerOfTwoWithinBounds) {
  ASSERT_EQ(::setenv("MPCSPAN_SHM_RING_BYTES", "5000", 1), 0);
  EXPECT_EQ(runtime::shard::defaultShmRingBytes(), 8192u);
  ASSERT_EQ(::setenv("MPCSPAN_SHM_RING_BYTES", "1", 1), 0);
  EXPECT_EQ(runtime::shard::defaultShmRingBytes(), 4096u);  // floor clamp
  ASSERT_EQ(::unsetenv("MPCSPAN_SHM_RING_BYTES"), 0);
  EXPECT_EQ(runtime::shard::defaultShmRingBytes(), std::size_t{1} << 20);
}

}  // namespace
}  // namespace mpcspan
