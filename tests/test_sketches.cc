#include "apsp/sketches.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <queue>
#include <unordered_map>

#include "graph/builder.hpp"
#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "spanner/tradeoff.hpp"
#include "util/rng.hpp"

namespace mpcspan {
namespace {

class SketchStretch
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(SketchStretch, QueriesWithin2kMinus1) {
  const auto [k, seed] = GetParam();
  Rng rng(seed * 13 + k);
  const Graph g = gnmRandom(300, 1800, rng, {WeightModel::kUniform, 20.0}, true);
  const DistanceSketches sk(g, {.k = k, .seed = seed});
  Rng pick(seed);
  for (int q = 0; q < 40; ++q) {
    const auto u = static_cast<VertexId>(pick.next(g.numVertices()));
    const auto v = static_cast<VertexId>(pick.next(g.numVertices()));
    const Weight exact = dijkstraPair(g, u, v);
    const Weight est = sk.query(u, v);
    if (exact == kInfDist) {
      EXPECT_EQ(est, kInfDist);
      continue;
    }
    EXPECT_GE(est + 1e-9, exact) << "u=" << u << " v=" << v;
    EXPECT_LE(est, sk.stretchBound() * exact + 1e-9)
        << "u=" << u << " v=" << v << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KSeeds, SketchStretch,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Sketches, SelfDistanceIsZero) {
  Rng rng(3);
  const Graph g = gnmRandom(100, 400, rng, {}, true);
  const DistanceSketches sk(g, {.k = 3, .seed = 1});
  for (VertexId v : {0u, 5u, 99u}) EXPECT_DOUBLE_EQ(sk.query(v, v), 0.0);
}

TEST(Sketches, DisconnectedPairsReturnInfinity) {
  GraphBuilder b(6);
  b.addEdge(0, 1, 1.0);
  b.addEdge(1, 2, 1.0);
  b.addEdge(3, 4, 1.0);
  const Graph g = b.build();
  const DistanceSketches sk(g, {.k = 3, .seed = 2});
  EXPECT_EQ(sk.query(0, 4), kInfDist);
  EXPECT_EQ(sk.query(0, 5), kInfDist);
  EXPECT_NE(sk.query(0, 2), kInfDist);
}

TEST(Sketches, KOneIsExactAPSPViaBunches) {
  // k=1: A_0 = V, every bunch holds exact distances to everyone.
  Rng rng(4);
  const Graph g = gnmRandom(80, 320, rng, {WeightModel::kUniform, 5.0}, true);
  const DistanceSketches sk(g, {.k = 1, .seed = 3});
  const auto exact = dijkstra(g, 7);
  for (VertexId v = 0; v < g.numVertices(); ++v)
    EXPECT_NEAR(sk.query(7, v), exact[v], 1e-9);
}

TEST(Sketches, BunchSizeNearTheory) {
  Rng rng(5);
  const std::size_t n = 1000;
  const Graph g = gnmRandom(n, 8000, rng, {WeightModel::kUniform, 9.0}, true);
  const std::uint32_t k = 3;
  const DistanceSketches sk(g, {.k = k, .seed = 4});
  // E[bunch total] = O(k n^{1+1/k}); generous constant 6.
  const double bound = 6.0 * k * std::pow(double(n), 1.0 + 1.0 / double(k));
  EXPECT_LT(static_cast<double>(sk.totalBunchEntries()), bound);
  // Levels shrink geometrically.
  ASSERT_EQ(sk.levelSizes().size(), k);
  EXPECT_EQ(sk.levelSizes()[0], n);
  EXPECT_LT(sk.levelSizes()[2], sk.levelSizes()[0]);
}

TEST(Sketches, SpannerAcceleratedVariantComposesStretch) {
  Rng rng(6);
  const Graph g = gnmRandom(600, 9000, rng, {WeightModel::kUniform, 12.0}, true);
  TradeoffParams tp;
  tp.k = 4;
  tp.t = 2;
  tp.seed = 5;
  const SpannerResult spanner = buildTradeoffSpanner(g, tp);
  const SketchParams sp{.k = 3, .seed = 6};
  const SpannerSketches ss = buildSketchesOnSpanner(g, spanner, sp);
  EXPECT_DOUBLE_EQ(ss.composedStretchBound, 5.0 * spanner.stretchBound);

  Rng pick(7);
  for (int q = 0; q < 30; ++q) {
    const auto u = static_cast<VertexId>(pick.next(g.numVertices()));
    const auto v = static_cast<VertexId>(pick.next(g.numVertices()));
    const Weight exact = dijkstraPair(g, u, v);
    if (exact == kInfDist || exact == 0) continue;
    const Weight est = ss.sketches.query(u, v);
    EXPECT_GE(est + 1e-9, exact);
    EXPECT_LE(est, ss.composedStretchBound * exact + 1e-9);
  }
}

TEST(Sketches, SpannerCutsPreprocessingWork) {
  // The [DN19] point: preprocessing cost scales with the edge count, so a
  // dense graph's sketches are much cheaper on its spanner.
  Rng rng(8);
  const Graph g = gnmRandom(800, 40000, rng, {WeightModel::kUniform, 10.0}, true);
  TradeoffParams tp;
  tp.k = 6;
  tp.t = 0;
  tp.seed = 9;
  const SpannerResult spanner = buildTradeoffSpanner(g, tp);
  ASSERT_LT(spanner.edges.size(), g.numEdges() / 3);

  const SketchParams sp{.k = 3, .seed = 10};
  const DistanceSketches direct(g, sp);
  const SpannerSketches accel = buildSketchesOnSpanner(g, spanner, sp);
  EXPECT_LT(accel.sketches.preprocessingRelaxations(),
            direct.preprocessingRelaxations());
}

// --- Bit-identity of the parallel build ---

/// The single-threaded build with one hash map per source, kept as the
/// reference the library's build must reproduce bit for bit.
SketchTables referenceTables(const Graph& g, const SketchParams& params) {
  using QItem = std::pair<Weight, VertexId>;
  using MinHeap = std::priority_queue<QItem, std::vector<QItem>, std::greater<>>;
  SketchTables t;
  t.k = std::max<std::uint32_t>(params.k, 1);
  t.n = g.numVertices();
  const std::uint32_t k = t.k;
  const std::size_t n = g.numVertices();
  const double p = std::pow(static_cast<double>(std::max<std::size_t>(n, 2)),
                            -1.0 / static_cast<double>(k));
  std::vector<std::vector<VertexId>> levels(k);
  for (VertexId v = 0; v < n; ++v) levels[0].push_back(v);
  for (std::uint32_t i = 1; i < k; ++i)
    for (VertexId v : levels[i - 1]) {
      const std::uint64_t h =
          mix64(params.seed ^ mix64((std::uint64_t(i) << 32) | v));
      if (static_cast<double>(h >> 11) * 0x1.0p-53 < p) levels[i].push_back(v);
    }
  for (const auto& lvl : levels)
    t.levelSizes.push_back(static_cast<VertexId>(lvl.size()));

  t.pivotDist.assign(k + 1, std::vector<Weight>(n, kInfDist));
  t.pivot.assign(k + 1, std::vector<VertexId>(n, kNoVertex));
  for (std::uint32_t i = 0; i < k; ++i) {
    auto& dist = t.pivotDist[i];
    auto& piv = t.pivot[i];
    MinHeap heap;
    for (VertexId s : levels[i]) {
      dist[s] = 0;
      piv[s] = s;
      heap.emplace(0.0, s);
    }
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist[v]) continue;
      for (const Incidence& inc : g.neighbors(v)) {
        const Weight nd = d + g.edge(inc.edge).w;
        ++t.relaxations;
        if (nd < dist[inc.to]) {
          dist[inc.to] = nd;
          piv[inc.to] = piv[v];
          heap.emplace(nd, inc.to);
        }
      }
    }
  }

  std::vector<std::vector<std::pair<VertexId, Weight>>> tmp(n);
  std::vector<char> inNext(n, 0);
  for (std::uint32_t i = 0; i < k; ++i) {
    std::fill(inNext.begin(), inNext.end(), 0);
    if (i + 1 < k)
      for (VertexId v : levels[i + 1]) inNext[v] = 1;
    for (VertexId w : levels[i]) {
      if (i + 1 < k && inNext[w]) continue;
      std::unordered_map<VertexId, Weight> dist;
      dist.emplace(w, 0.0);
      MinHeap heap;
      heap.emplace(0.0, w);
      while (!heap.empty()) {
        const auto [d, v] = heap.top();
        heap.pop();
        const auto dv = dist.find(v);
        if (dv == dist.end() || d > dv->second) continue;
        tmp[v].emplace_back(w, d);
        for (const Incidence& inc : g.neighbors(v)) {
          const Weight nd = d + g.edge(inc.edge).w;
          ++t.relaxations;
          if (nd >= t.pivotDist[i + 1][inc.to]) continue;
          const auto it = dist.find(inc.to);
          if (it == dist.end() || nd < it->second) {
            dist[inc.to] = nd;
            heap.emplace(nd, inc.to);
          }
        }
      }
    }
  }
  t.bunchStart.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    auto& b = tmp[v];
    std::sort(b.begin(), b.end(),
              [](const auto& a, const auto& c) { return a.first < c.first; });
    b.erase(std::unique(b.begin(), b.end(),
                        [](const auto& a, const auto& c) {
                          return a.first == c.first;
                        }),
            b.end());
    t.bunchStart[v + 1] = t.bunchStart[v] + b.size();
    for (const auto& [w, d] : b) {
      t.bunchW.push_back(w);
      t.bunchDist.push_back(d);
    }
  }
  return t;
}

template <class T>
bool sameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void expectIdentical(const SketchTables& got, const SketchTables& want,
                     const std::string& what) {
  EXPECT_EQ(got.k, want.k) << what;
  EXPECT_EQ(got.n, want.n) << what;
  ASSERT_EQ(got.pivotDist.size(), want.pivotDist.size()) << what;
  ASSERT_EQ(got.pivot.size(), want.pivot.size()) << what;
  for (std::size_t i = 0; i < want.pivotDist.size(); ++i) {
    EXPECT_TRUE(sameBytes(got.pivotDist[i], want.pivotDist[i]))
        << what << " pivotDist level " << i;
    EXPECT_EQ(got.pivot[i], want.pivot[i]) << what << " pivot level " << i;
  }
  EXPECT_EQ(got.bunchStart, want.bunchStart) << what;
  EXPECT_EQ(got.bunchW, want.bunchW) << what;
  EXPECT_TRUE(sameBytes(got.bunchDist, want.bunchDist)) << what << " bunchDist";
  EXPECT_EQ(got.levelSizes, want.levelSizes) << what;
  EXPECT_EQ(got.relaxations, want.relaxations) << what;
}

TEST(Sketches, BuildIsBitIdenticalAtAnyLaneCount) {
  struct Case {
    std::string name;
    Graph g;
    std::uint32_t k;
  };
  std::vector<Case> cases;
  {
    Rng rng(21);
    cases.push_back({"gnm k3",
                     gnmRandom(500, 3000, rng, {WeightModel::kUniform, 50.0}, true),
                     3});
  }
  {
    // Unit weights: many tied shortest paths.
    Rng rng(22);
    cases.push_back({"grid k3", grid2d(24, 20, rng), 3});
  }
  {
    // Two components plus isolated vertices: infinite pivot distances.
    GraphBuilder b(300);
    Rng rng(23);
    for (int e = 0; e < 900; ++e) {
      const VertexId half = e % 2 ? 140 : 0;
      const auto u = static_cast<VertexId>(half + rng.next(140));
      const auto v = static_cast<VertexId>(half + rng.next(140));
      if (u != v) b.addEdge(u, v, 1.0 + static_cast<double>(rng.next(9)));
    }
    cases.push_back({"disconnected k3", b.build(), 3});
  }
  {
    Rng rng(24);
    cases.push_back({"gnm k1",
                     gnmRandom(150, 600, rng, {WeightModel::kUniform, 10.0}, true),
                     1});
  }
  {
    Rng rng(25);
    cases.push_back({"gnm k4",
                     gnmRandom(600, 2400, rng, {WeightModel::kInteger, 4.0}, true),
                     4});
  }
  for (const Case& c : cases) {
    const SketchParams sp{.k = c.k, .seed = 7};
    const SketchTables want = referenceTables(c.g, sp);
    for (std::size_t lanes : {1, 2, 4}) {
      runtime::ThreadPool pool(lanes);
      expectIdentical(DistanceSketches(c.g, sp, &pool).exportTables(), want,
                      c.name + " lanes=" + std::to_string(lanes));
    }
    expectIdentical(DistanceSketches(c.g, sp).exportTables(), want,
                    c.name + " default pool");
  }
}

}  // namespace
}  // namespace mpcspan
