// M1 — google-benchmark micro suite: throughput of the substrate pieces
// (generators, Dijkstra, engine iterations, distributed primitives, and the
// round-engine runtime itself at the configured lane/shard counts —
// MPCSPAN_THREADS / MPCSPAN_SHARDS — which is what the CI benchmark job
// sweeps).
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>

#include "apsp/sketches.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_iteration.hpp"
#include "mpc/primitives.hpp"
#include "runtime/round_engine.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/engine.hpp"
#include "spanner/tradeoff.hpp"
#include "spanner/verify.hpp"
#include "util/rng.hpp"

namespace {

using namespace mpcspan;

void BM_GnmGenerate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(gnmRandom(n, 8 * n, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * n);
}
BENCHMARK(BM_GnmGenerate)->Arg(1 << 10)->Arg(1 << 13);

void BM_Dijkstra(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 10.0}, true);
  VertexId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(g, src));
    src = static_cast<VertexId>((src + 1) % n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * n);
}
BENCHMARK(BM_Dijkstra)->Arg(1 << 10)->Arg(1 << 13);

void BM_BaswanaSen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 10.0}, true);
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(buildBaswanaSen(g, {.k = 4, .seed = seed++}));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * n);
}
BENCHMARK(BM_BaswanaSen)->Arg(1 << 10)->Arg(1 << 13);

void BM_TradeoffSpanner(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 10.0}, true);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    TradeoffParams p;
    p.k = 16;
    p.t = 0;
    p.seed = seed++;
    benchmark::DoNotOptimize(buildTradeoffSpanner(g, p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * n);
}
BENCHMARK(BM_TradeoffSpanner)->Arg(1 << 10)->Arg(1 << 13);

void BM_DistSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  std::vector<std::uint64_t> data(n);
  for (auto& x : data) x = rng.next(1u << 24);
  for (auto _ : state) {
    MpcSimulator sim(MpcConfig::forInput(n, 0.6, 3.0));
    DistVector<std::uint64_t> dv(sim, data);
    distSort(dv, std::less<>());
    benchmark::DoNotOptimize(dv.collectHostSide());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DistSort)->Arg(1 << 12)->Arg(1 << 15);

/// One machine-centric engine round with per-machine local compute: the
/// stepping pool's scaling surface. Lanes follow MPCSPAN_THREADS, shards
/// MPCSPAN_SHARDS, so the CI job compares 1-lane vs N-lane (and sharded)
/// wall-clock on the identical deterministic workload.
void BM_EngineStep(benchmark::State& state) {
  using namespace mpcspan::runtime;
  const auto machines = static_cast<std::size_t>(state.range(0));
  const auto spin = static_cast<std::size_t>(state.range(1));
  // The closure step is in-process only: pin one shard.
  RoundEngine eng(EngineConfig{machines, 0, 1},
                  std::make_unique<MpcTopology>(1u << 20));
  for (auto _ : state) {
    eng.step([&](std::size_t m, const std::vector<Delivery>&) {
      // Deterministic local work standing in for a machine's round compute.
      std::uint64_t h = m + 1;
      for (std::size_t i = 0; i < spin; ++i)
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      std::vector<Message> out;
      out.push_back({(m + 1) % machines, {h}});
      return out;
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(machines * spin));
}
BENCHMARK(BM_EngineStep)->Args({64, 20000})->Args({256, 5000});

/// Per-round dispatch latency of a kernel round on the shard backend —
/// the only per-round traffic on the coordinator-worker wire: a tiny STEP
/// round (4 machines per shard, each sending one single-word message
/// to its successor) at a fixed shard count, i.e. one STEP frame, one
/// report and one verdict per worker plus the cross-shard sections.
/// arg0 = shards.
void BM_ShardRoundDispatch(benchmark::State& state) {
  using namespace mpcspan::runtime;
  class RingKernel final : public StepKernel {
   public:
    std::vector<Message> step(const KernelCtx& ctx) override {
      return {{(ctx.machine + 1) % ctx.numMachines, {ctx.machine}}};
    }
  };
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::size_t machines = 4 * shards;
  RoundEngine eng(EngineConfig{machines, 1, shards},
                  std::make_unique<MpcTopology>(64));
  const KernelId k = eng.registerKernel(
      "bench.ring", [] { return std::make_unique<RingKernel>(); });
  for (auto _ : state) eng.step(k);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardRoundDispatch)->Arg(4)->Arg(2)->Unit(benchmark::kMicrosecond);

/// One full growth-iteration wave (both find-min supersteps) through the
/// registered kernels on the resident workers, at a fixed shard count
/// (1 = the in-process reference). The simulated ledger is identical at
/// every shard count (asserted by test_wave_kernels); only the dispatch
/// cost differs. arg0 = shards.
void BM_IterationRoundDispatch(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  const Graph g = gnmRandom(400, 2000, rng, {WeightModel::kUniform, 12.0}, true);
  const std::size_t n = g.numVertices();
  std::vector<VertexId> ident(n);
  std::iota(ident.begin(), ident.end(), 0);
  const std::vector<char> sampled =
      HashCoinPolicy::draw(std::vector<char>(n, 1), 0.3, 23, 1);
  MpcSimulator sim(MpcConfig::forInput(4 * g.numEdges(), 0.6, 3.0),
                   /*threads=*/1, shards);
  for (auto _ : state)
    benchmark::DoNotOptimize(distIterationKernel(sim, g, ident, ident, sampled));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IterationRoundDispatch)
    ->Arg(4)
    ->Arg(2)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// The transport probe: exchange-heavy kernel rounds (every machine ships
/// one multi-word payload to every machine outside its own shard,
/// distSort-phase / clique-label-round shaped traffic) at a fixed shard
/// count, cross-shard sections moved through the shared-memory rings or
/// the loopback tcp mesh. The ledger and contents are identical on both
/// (asserted by test_shm_exchange / test_tcp_transport); only where the
/// bytes travel differs — the tcp axis prices moving a shard off-host (and
/// the fallback a host without POSIX shm takes). arg0 = shards (1 = the
/// in-process reference), arg1 = 1 tcp mesh / 0 shm ring. Two shards only:
/// on a 4-core host the 4-shard medians swing several-fold between
/// back-to-back runs, too wide to show a gain or a regression.
void BM_CrossShardExchange(benchmark::State& state) {
  using namespace mpcspan::runtime;
  class AllToAllKernel final : public StepKernel {
   public:
    std::vector<Message> step(const KernelCtx& ctx) override {
      const auto words = static_cast<std::size_t>(ctx.args[0]);
      std::vector<Word> pay(words);
      for (std::size_t i = 0; i < words; ++i) pay[i] = ctx.machine * 7919 + i;
      std::vector<Message> out;
      out.reserve(ctx.numMachines - 1);
      for (std::size_t d = 0; d < ctx.numMachines; ++d)
        if (d != ctx.machine) out.push_back({d, pay});
      return out;
    }
  };
  const auto shards = static_cast<std::size_t>(state.range(0));
  const Transport transport =
      state.range(1) != 0 ? Transport::kTcp : Transport::kShmRing;
  const std::size_t machines = 4 * shards;
  const std::size_t payloadWords = 256;
  RoundEngine eng(EngineConfig{machines, 1, shards, transport},
                  std::make_unique<MpcTopology>(machines * payloadWords));
  const KernelId k = eng.registerKernel(
      "bench.alltoall", [] { return std::make_unique<AllToAllKernel>(); });
  for (auto _ : state) eng.step(k, {payloadWords});
  state.SetLabel(shards == 1                          ? "in-process"
                 : eng.transport() == Transport::kTcp ? "tcp-loopback"
                                                      : "shm-ring");
  // Cross-shard words moved per round (the traffic whose routing is probed).
  const std::size_t crossWords =
      shards == 1 ? 0 : machines * (machines - 4) * payloadWords;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(crossWords * sizeof(Word)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CrossShardExchange)
    ->Args({2, 1})
    ->Args({2, 0})
    ->Args({1, 0})
    ->Unit(benchmark::kMicrosecond);

/// The arena acceptance probe: BlockStore block churn shaped like the sort
/// kernels' per-round traffic — every machine's block is cleared and
/// refilled each "round", with the block capacity run recycled through the
/// store's arena (vs the per-block heap vector the store used before).
/// arg0 = 1 arena-backed store / 0 plain heap vectors.
void BM_ArenaBlockChurn(benchmark::State& state) {
  using namespace mpcspan::runtime;
  const bool arenaBacked = state.range(0) != 0;
  constexpr std::size_t kMachines = 64;
  constexpr std::size_t kWords = 2048;
  std::vector<Word> fill(kWords);
  for (std::size_t i = 0; i < kWords; ++i) fill[i] = i * 2654435761u;
  BlockStore store(kMachines);
  // The pre-arena BlockStore: handles in an unordered_map, each block a
  // bare std::vector<Word> that create() constructs and erase() frees.
  std::unordered_map<int, std::vector<std::vector<Word>>> heapStore;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    if (arenaBacked) {
      // Handle lifecycle churn (the growth driver emits into a fresh
      // handle each iteration): erase recycles every block's run into the
      // store's arena, create + append draws them straight back out.
      store.create(1);
      for (std::size_t m = 0; m < kMachines; ++m) {
        WordBuf& b = store.block(1, m);
        b.append(fill.data(), (m % 2) ? kWords : kWords / 2);
        sink += b.data()[0] + b.size();
      }
      store.erase(1);
    } else {
      auto [it, _ins] = heapStore.emplace(
          1, std::vector<std::vector<Word>>(kMachines));
      for (std::size_t m = 0; m < kMachines; ++m) {
        std::vector<Word>& b = it->second[m];  // fresh allocation each round
        b.insert(b.end(), fill.begin(),
                 fill.begin() + ((m % 2) ? kWords : kWords / 2));
        sink += b.data()[0] + b.size();
      }
      heapStore.erase(it);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetLabel(arenaBacked ? "arena-blockstore" : "heap-vectors");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMachines));
}
BENCHMARK(BM_ArenaBlockChurn)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

// The Thorup-Zwick sketch build on a serve-mixed-like input (sparse
// weighted G(n,m), n = 10k, average degree 14, k = 3), on the default pool:
// MPCSPAN_THREADS sets its lanes, so the CI lane sweep times 1 vs N lanes.
void BM_SketchBuild(benchmark::State& state) {
  const std::size_t n = 10000;
  Rng rng(101);
  const Graph g = gnmRandom(n, 7 * n, rng, {WeightModel::kUniform, 100.0}, true);
  std::size_t relaxations = 0;
  for (auto _ : state) {
    const DistanceSketches sk(g, {.k = 3, .seed = 2});
    relaxations = sk.preprocessingRelaxations();
    benchmark::DoNotOptimize(relaxations);
  }
  state.counters["relaxations"] = static_cast<double>(relaxations);
}
BENCHMARK(BM_SketchBuild)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_VerifyPairStretch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(19);
  const Graph g = gnmRandom(n, 8 * n, rng, {WeightModel::kUniform, 10.0}, true);
  const auto r = buildBaswanaSen(g, {.k = 3, .seed = 5});
  for (auto _ : state)
    benchmark::DoNotOptimize(measurePairStretch(g, r.edges, 2, 1));
}
BENCHMARK(BM_VerifyPairStretch)->Arg(1 << 10);

}  // namespace

BENCHMARK_MAIN();
