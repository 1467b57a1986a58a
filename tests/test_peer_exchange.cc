// The worker-to-worker exchange on both transports: a topology abort
// (the coordinator's receive check) or a kernel throw discards the
// speculatively exchanged deliveries — resident inboxes, ledger, and
// kernel state stay as before the round — and the workers stay usable;
// the socketpair mesh completes arbitrarily large full-duplex frames
// without a pairwise ordering; and corrupt section frames are rejected
// without integer overflow (WireReader / section-merge hardening).
#include "runtime/shard/peer_mesh.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "runtime/round_engine.hpp"
#include "runtime/shard/sharded_engine.hpp"
#include "runtime/shard/wire.hpp"

namespace mpcspan {
namespace {

using runtime::EngineConfig;
using runtime::KernelCtx;
using runtime::KernelId;
using runtime::Message;
using runtime::MpcTopology;
using runtime::RoundEngine;
using runtime::StepKernel;
using runtime::Transport;
using runtime::shard::mergeSectionRows;
using runtime::shard::ShardError;
using runtime::shard::WireReader;
using runtime::shard::WireWriter;

const char* transportName(Transport t) {
  return t == Transport::kTcp ? "tcp" : "shm";
}

TEST(PeerExchange, CapacityAbortDiscardsSpeculativeDeliveriesOnBothTransports) {
  // A receive-budget violation is only detectable at the coordinator, after
  // every worker already shipped and merged its sections speculatively:
  // resident inboxes, kernel state, and the ledger must be exactly as
  // before the aborted round, and the engine stays usable.
  class Flooder final : public StepKernel {
   public:
    std::vector<Message> step(const KernelCtx& ctx) override {
      if (!ctx.args.empty())
        return {{0, {1, 2, 3, 4, 5}}};  // 8 machines x 5 words > cap 16
      return {{(ctx.machine + 5) % ctx.numMachines, {ctx.machine + 7}}};
    }
  };
  for (const Transport transport : {Transport::kShmRing, Transport::kTcp}) {
    SCOPED_TRACE(transportName(transport));
    RoundEngine eng(EngineConfig{8, 1, 4, transport},
                    std::make_unique<MpcTopology>(16));
    const KernelId k = eng.registerKernel(
        "test.flooder", [] { return std::make_unique<Flooder>(); });
    eng.step(k);
    const std::size_t wordsBefore = eng.totalWordsSent();
    const auto inboxesBefore = eng.snapshotInboxes();
    EXPECT_THROW(eng.step(k, {1}), CapacityError);
    EXPECT_EQ(eng.rounds(), 1u);
    EXPECT_EQ(eng.totalWordsSent(), wordsBefore);
    const auto inboxesAfter = eng.snapshotInboxes();
    ASSERT_EQ(inboxesBefore.size(), inboxesAfter.size());
    for (std::size_t m = 0; m < inboxesBefore.size(); ++m) {
      ASSERT_EQ(inboxesBefore[m].size(), inboxesAfter[m].size());
      for (std::size_t i = 0; i < inboxesBefore[m].size(); ++i) {
        EXPECT_EQ(inboxesBefore[m][i].src, inboxesAfter[m][i].src);
        EXPECT_EQ(inboxesBefore[m][i].payload, inboxesAfter[m][i].payload);
      }
    }
    eng.step(k);  // the workers survived the abort
    EXPECT_EQ(eng.rounds(), 2u);
  }
}

TEST(PeerExchange, KernelThrowAbortsTheRoundOnBothTransports) {
  // Phase-A failure: the failing worker still pumps empty sections so no
  // peer blocks mid-exchange, every worker reads the abort verdict, and the
  // round dies uncharged with the engine still usable.
  class Thrower final : public StepKernel {
   public:
    std::vector<Message> step(const KernelCtx& ctx) override {
      if (!ctx.args.empty() && ctx.machine == 5)
        throw std::runtime_error("boom in shard");
      return {{(ctx.machine + 3) % ctx.numMachines, {ctx.machine}}};
    }
  };
  for (const Transport transport : {Transport::kShmRing, Transport::kTcp}) {
    SCOPED_TRACE(transportName(transport));
    RoundEngine eng(EngineConfig{8, 1, 4, transport},
                    std::make_unique<MpcTopology>(32));
    const KernelId k = eng.registerKernel(
        "test.thrower", [] { return std::make_unique<Thrower>(); });
    eng.step(k);
    EXPECT_THROW(eng.step(k, {1}), std::runtime_error);
    EXPECT_EQ(eng.rounds(), 1u);
    eng.step(k);
    EXPECT_EQ(eng.rounds(), 2u);
  }
}

// --- The mesh transport itself, in-process. ---

TEST(PeerMesh, LargeFrameFullDuplexExchangeCompletes) {
  // Three "workers" (threads) exchange ~1.6 MB sections — far beyond any
  // AF_UNIX socket buffer — all sending and receiving concurrently. The
  // poll-multiplexed exchange must complete without any pairwise ordering
  // (a naive blocking send-then-recv schedule deadlocks here).
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kWords = 200000;
  auto mesh = runtime::shard::makeMesh(kWorkers);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kWorkers);
  std::vector<std::vector<std::vector<Message>>> received(
      kWorkers, std::vector<std::vector<Message>>(kWorkers));
  for (std::size_t i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&, i] {
      try {
        std::vector<WireWriter> sections(kWorkers);
        std::vector<std::uint64_t> counts(kWorkers, 0);
        for (std::size_t t = 0; t < kWorkers; ++t) {
          if (t == i) continue;
          std::vector<Word> pay(kWords);
          for (std::size_t w = 0; w < kWords; ++w) pay[w] = i * 1000 + t + w;
          sections[t].row(i, t, pay.data(), pay.size());
          counts[t] = 1;
        }
        auto frames =
            runtime::shard::meshExchange(mesh[i], i, counts, sections);
        for (std::size_t t = 0; t < kWorkers; ++t) {
          if (t == i) continue;
          const std::uint64_t count = frames[t].u64();
          ASSERT_EQ(count, 1u);
          mergeSectionRows(frames[t], count, t, t + 1, i, i + 1, received[i]);
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < kWorkers; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    for (std::size_t t = 0; t < kWorkers; ++t) {
      if (t == i) continue;
      ASSERT_EQ(received[i][t].size(), 1u) << i << " <- " << t;
      const Message& msg = received[i][t][0];
      EXPECT_EQ(msg.dst, i);
      ASSERT_EQ(msg.payload.size(), kWords);
      EXPECT_EQ(msg.payload[0], t * 1000 + i);
      EXPECT_EQ(msg.payload[kWords - 1], t * 1000 + i + kWords - 1);
    }
  }
}

// --- Corrupt section frames: rejected without integer overflow. ---

WireReader toReader(const WireWriter& w) {
  return WireReader::fromBytes(
      std::vector<std::uint8_t>(w.data(), w.data() + w.size()));
}

TEST(PeerSectionParse, ImplausibleRowCountRejectedWithoutOverflow) {
  std::vector<std::vector<Message>> projected(8);
  WireReader empty = WireReader::fromBytes({});
  EXPECT_THROW(mergeSectionRows(empty, ~std::uint64_t{0}, 0, 4, 4, 8, projected),
               ShardError);
  // A count whose byte requirement would wrap a 64-bit multiply.
  WireWriter w;
  w.u64(1);
  WireReader r = toReader(w);
  EXPECT_THROW(
      mergeSectionRows(r, (~std::uint64_t{0}) / 8, 0, 4, 4, 8, projected),
      ShardError);
  for (const auto& rows : projected) EXPECT_TRUE(rows.empty());
}

TEST(PeerSectionParse, ImplausiblePayloadLengthRejectedWithoutOverflow) {
  std::vector<std::vector<Message>> projected(8);
  WireWriter w;
  w.u64(0);                       // src
  w.u64(4);                       // dst
  w.u64(std::uint64_t{1} << 61);  // len: * sizeof(Word) would wrap
  WireReader r = toReader(w);
  EXPECT_THROW(mergeSectionRows(r, 1, 0, 4, 4, 8, projected), ShardError);
  for (const auto& rows : projected) EXPECT_TRUE(rows.empty());
}

TEST(PeerSectionParse, RowOutOfRangeRejectedBeforeAnyRowLands) {
  std::vector<std::vector<Message>> projected(8);
  const Word payload = 42;
  // First row valid, second row's src escapes the sender's shard range: the
  // vet pass must reject the whole section before row one is consumed.
  WireWriter w;
  w.row(1, 5, &payload, 1);
  w.row(6, 5, &payload, 1);
  WireReader r = toReader(w);
  EXPECT_THROW(mergeSectionRows(r, 2, 0, 4, 4, 8, projected), ShardError);
  for (const auto& rows : projected) EXPECT_TRUE(rows.empty());

  WireWriter w2;
  w2.row(1, 2, &payload, 1);  // dst outside the receiver's range
  WireReader r2 = toReader(w2);
  EXPECT_THROW(mergeSectionRows(r2, 1, 0, 4, 4, 8, projected), ShardError);
}

TEST(PeerSectionParse, TruncatedRowRejected) {
  std::vector<std::vector<Message>> projected(8);
  const Word payload = 7;
  WireWriter w;
  w.row(0, 4, &payload, 1);
  w.u64(1);  // a second row's src, then nothing
  WireReader r = toReader(w);
  EXPECT_THROW(mergeSectionRows(r, 2, 0, 4, 4, 8, projected), ShardError);
  for (const auto& rows : projected) EXPECT_TRUE(rows.empty());
}

TEST(PeerSectionParse, ValidSectionMergesInRowOrder) {
  std::vector<std::vector<Message>> projected(8);
  const Word a[3] = {10, 11, 12};
  const Word b = 20;
  WireWriter w;
  w.row(1, 6, a, 3);
  w.row(1, 4, &b, 1);
  w.row(3, 5, &b, 1);
  WireReader r = toReader(w);
  mergeSectionRows(r, 3, 0, 4, 4, 8, projected);
  ASSERT_EQ(projected[1].size(), 2u);
  EXPECT_EQ(projected[1][0].dst, 6u);
  EXPECT_EQ(projected[1][0].payload, (std::vector<Word>{10, 11, 12}));
  EXPECT_EQ(projected[1][1].dst, 4u);
  ASSERT_EQ(projected[3].size(), 1u);
  EXPECT_EQ(projected[3][0].dst, 5u);
  EXPECT_TRUE(r.atEnd());
}

// --- WireReader hardening (the raw cursor under wire-supplied sizes). ---

TEST(WireReader, WireSuppliedSizesCannotOverflow) {
  WireWriter w;
  w.u64(~std::uint64_t{0});  // a string/word-count length field of 2^64-1
  {
    WireReader r = toReader(w);
    EXPECT_THROW(r.str(), ShardError);
  }
  {
    WireReader r = toReader(w);
    std::vector<Word> out(1);
    (void)r.u64();
    EXPECT_THROW(r.words(out.data(), ~std::uint64_t{0} / 2), ShardError);
  }
  {
    WireReader r = WireReader::fromBytes({1, 2, 3});  // not even one u64
    EXPECT_THROW(r.u64(), ShardError);
  }
  {
    WireReader r = toReader(w);
    EXPECT_THROW(r.seek(9), ShardError);
    r.seek(8);
    EXPECT_TRUE(r.atEnd());
  }
}

}  // namespace
}  // namespace mpcspan
