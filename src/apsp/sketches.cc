#include "apsp/sketches.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <stdexcept>

#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "util/rng.hpp"

namespace mpcspan {

namespace {
using QItem = std::pair<Weight, VertexId>;
using MinHeap = std::priority_queue<QItem, std::vector<QItem>, std::greater<>>;

using Settled = std::pair<VertexId, Weight>;

/// Entries per emission block (1 MiB): large enough that a lane allocates
/// rarely, so sources do not contend on the allocator.
constexpr std::size_t kBlockEntries = std::size_t{1} << 16;

/// One lane's scratch for the bunch searches: distances (kInfDist when
/// untouched), the vertices to reset, the heap, the current source's
/// settled (v, d) list, and the blocks that keep every source's list.
struct Workspace {
  explicit Workspace(std::size_t n) : dist(n, kInfDist) {}
  std::vector<Weight> dist;
  std::vector<VertexId> touched;
  MinHeap heap;
  std::vector<Settled> settled;
  std::vector<std::vector<Settled>> blocks;

  /// Appends `settled` whole to the last block (a new one if it does not
  /// fit; blocks never reallocate) and returns where it landed.
  std::span<const Settled> keepSettled() {
    if (blocks.empty() ||
        blocks.back().capacity() - blocks.back().size() < settled.size()) {
      blocks.emplace_back();
      blocks.back().reserve(std::max(kBlockEntries, settled.size()));
    }
    std::vector<Settled>& block = blocks.back();
    const std::size_t at = block.size();
    block.insert(block.end(), settled.begin(), settled.end());
    return {block.data() + at, settled.size()};
  }
};
}  // namespace

DistanceSketches::DistanceSketches(const Graph& g, const SketchParams& params,
                                   runtime::ThreadPool* pool)
    : k_(std::max<std::uint32_t>(params.k, 1)), n_(g.numVertices()) {
  if (pool) {
    build(g, params.seed, *pool);
    return;
  }
  runtime::ThreadPool own;  // default lanes, joined before returning
  build(g, params.seed, own);
}

DistanceSketches::DistanceSketches(SketchTables t)
    : k_(t.k), n_(static_cast<std::size_t>(t.n)) {
  if (k_ == 0) throw std::invalid_argument("sketch tables: k must be >= 1");
  if (t.pivotDist.size() != k_ + 1 || t.pivot.size() != k_ + 1)
    throw std::invalid_argument("sketch tables: pivot level count != k+1");
  for (std::uint32_t i = 0; i <= k_; ++i)
    if (t.pivotDist[i].size() != n_ || t.pivot[i].size() != n_)
      throw std::invalid_argument("sketch tables: pivot row size != n");
  if (t.bunchStart.size() != n_ + 1 || t.bunchStart.front() != 0)
    throw std::invalid_argument("sketch tables: bad bunch offsets");
  for (std::size_t v = 0; v < n_; ++v)
    if (t.bunchStart[v] > t.bunchStart[v + 1])
      throw std::invalid_argument("sketch tables: non-monotone bunch offsets");
  if (t.bunchStart.back() != t.bunchW.size() ||
      t.bunchW.size() != t.bunchDist.size())
    throw std::invalid_argument("sketch tables: bunch array size mismatch");
  for (VertexId w : t.bunchW)
    if (w >= n_) throw std::invalid_argument("sketch tables: bunch vertex out of range");
  if (t.levelSizes.size() != k_)
    throw std::invalid_argument("sketch tables: level size count != k");
  pivotDist_ = std::move(t.pivotDist);
  pivot_ = std::move(t.pivot);
  bunchStart_ = std::move(t.bunchStart);
  bunchW_ = std::move(t.bunchW);
  bunchDist_ = std::move(t.bunchDist);
  levelSizes_ = std::move(t.levelSizes);
  relaxations_ = static_cast<std::size_t>(t.relaxations);
}

SketchTables DistanceSketches::exportTables() const {
  SketchTables t;
  t.k = k_;
  t.n = n_;
  t.pivotDist = pivotDist_;
  t.pivot = pivot_;
  t.bunchStart = bunchStart_;
  t.bunchW = bunchW_;
  t.bunchDist = bunchDist_;
  t.levelSizes = levelSizes_;
  t.relaxations = relaxations_;
  return t;
}

void DistanceSketches::build(const Graph& g, std::uint64_t seed,
                             runtime::ThreadPool& pool) {
  // Levels: A_0 = V; A_i keeps each member of A_{i-1} with prob n^{-1/k}.
  const double p =
      std::pow(static_cast<double>(std::max<std::size_t>(n_, 2)),
               -1.0 / static_cast<double>(k_));
  std::vector<std::vector<VertexId>> levels(k_);
  levels[0].resize(n_);
  for (VertexId v = 0; v < n_; ++v) levels[0][v] = v;
  for (std::uint32_t i = 1; i < k_; ++i)
    for (VertexId v : levels[i - 1]) {
      const std::uint64_t h = mix64(seed ^ mix64((std::uint64_t(i) << 32) | v));
      if (static_cast<double>(h >> 11) * 0x1.0p-53 < p) levels[i].push_back(v);
    }
  levelSizes_.clear();
  for (const auto& lvl : levels)
    levelSizes_.push_back(static_cast<VertexId>(lvl.size()));

  // Pivots: multi-source Dijkstra from each level (level k == empty set,
  // distance infinity by convention), one level per task.
  pivotDist_.assign(k_ + 1, std::vector<Weight>(n_, kInfDist));
  pivot_.assign(k_ + 1, std::vector<VertexId>(n_, kNoVertex));
  std::vector<std::uint64_t> pivotRelax(k_, 0);
  pool.parallelFor(k_, [&](std::size_t i) {
    auto& dist = pivotDist_[i];
    auto& piv = pivot_[i];
    std::uint64_t count = 0;
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
        ++count;
        if (nd < dist[inc.to]) {
          dist[inc.to] = nd;
          piv[inc.to] = piv[v];
          heap.emplace(nd, inc.to);
        }
      }
    }
    pivotRelax[i] = count;
  });

  // Bunches: every vertex w is a source at exactly one level i (w in
  // A_i \ A_{i+1}); its Dijkstra is truncated to the region where
  // d(w, v) < d(A_{i+1}, v). Each source is one task on the pool and writes
  // only its own slot of `emitted` and `relax`. The search runs on a dense
  // distance array reset through its touched list; a lane holds one such
  // workspace at a time, so at most numThreads() of them exist. The
  // workspaces, and with them the emitted lists, live until the flatten.
  std::vector<std::span<const Settled>> emitted(n_);
  std::vector<std::uint64_t> relax(n_, 0);
  std::mutex idleMutex;
  std::vector<std::unique_ptr<Workspace>> idle;
  std::vector<char> inNext(n_, 0);
  std::vector<VertexId> sources;
  for (std::uint32_t i = 0; i < k_; ++i) {
    std::fill(inNext.begin(), inNext.end(), 0);
    if (i + 1 < k_)
      for (VertexId v : levels[i + 1]) inNext[v] = 1;
    sources.clear();
    for (VertexId w : levels[i])
      if (!inNext[w]) sources.push_back(w);  // else it belongs to a higher level
    const std::vector<Weight>& bound = pivotDist_[i + 1];
    pool.parallelFor(sources.size(), [&](std::size_t j) {
      std::unique_ptr<Workspace> ws;
      {
        std::lock_guard<std::mutex> lock(idleMutex);
        if (!idle.empty()) {
          ws = std::move(idle.back());
          idle.pop_back();
        }
      }
      if (!ws) ws = std::make_unique<Workspace>(n_);
      const VertexId w = sources[j];
      auto& dist = ws->dist;
      std::uint64_t count = 0;
      dist[w] = 0;
      ws->touched.push_back(w);
      ws->heap.emplace(0.0, w);
      while (!ws->heap.empty()) {
        const auto [d, v] = ws->heap.top();
        ws->heap.pop();
        if (d > dist[v]) continue;
        ws->settled.emplace_back(v, d);
        for (const Incidence& inc : g.neighbors(v)) {
          const Weight nd = d + g.edge(inc.edge).w;
          ++count;
          if (nd >= bound[inc.to]) continue;  // TZ truncation
          if (nd < dist[inc.to]) {
            if (dist[inc.to] == kInfDist) ws->touched.push_back(inc.to);
            dist[inc.to] = nd;
            ws->heap.emplace(nd, inc.to);
          }
        }
      }
      emitted[w] = ws->keepSettled();
      relax[w] = count;
      for (VertexId v : ws->touched) dist[v] = kInfDist;
      ws->touched.clear();
      ws->settled.clear();
      std::lock_guard<std::mutex> lock(idleMutex);
      idle.push_back(std::move(ws));
    });
  }

  relaxations_ = 0;
  for (std::uint64_t r : pivotRelax) relaxations_ += r;
  for (std::uint64_t r : relax) relaxations_ += r;

  // Flatten: a counting sort by v. Sources are scattered in increasing w,
  // so every segment comes out sorted by w. A source settles each vertex
  // once (pops are nondecreasing and weights positive, so a settled vertex
  // is never pushed again), so no (v, w) pair repeats. The tables therefore
  // depend only on the graph and the seed, not on lane count or schedule.
  bunchStart_.assign(n_ + 1, 0);
  for (const auto& out : emitted)
    for (const auto& e : out) ++bunchStart_[e.first + 1];
  for (std::size_t v = 0; v < n_; ++v) bunchStart_[v + 1] += bunchStart_[v];
  bunchW_.resize(bunchStart_.back());
  bunchDist_.resize(bunchStart_.back());
  std::vector<std::uint64_t> next(bunchStart_.begin(), bunchStart_.end() - 1);
  for (VertexId w = 0; w < n_; ++w)
    for (const auto& [v, d] : emitted[w]) {
      const std::uint64_t at = next[v]++;
      bunchW_[at] = w;
      bunchDist_[at] = d;
    }
}

Weight DistanceSketches::query(VertexId u, VertexId v) const {
  if (u == v) return 0;
  VertexId w = u;
  Weight du = 0;  // d(w, u)
  for (std::uint32_t i = 0;; ) {
    const auto first = bunchW_.begin() + static_cast<std::ptrdiff_t>(bunchStart_[v]);
    const auto last = bunchW_.begin() + static_cast<std::ptrdiff_t>(bunchStart_[v + 1]);
    const auto it = std::lower_bound(first, last, w);
    if (it != last && *it == w)
      return du + bunchDist_[static_cast<std::size_t>(it - bunchW_.begin())];
    ++i;
    if (i >= k_) return kInfDist;
    std::swap(u, v);
    w = pivot_[i][u];
    if (w == kNoVertex) return kInfDist;
    du = pivotDist_[i][u];
  }
}

std::size_t DistanceSketches::memoryWords() const {
  // One word per stored scalar: pivot distance + pivot id per (level,
  // vertex), the bunch offset array, and the two flat bunch arrays.
  return 2 * (static_cast<std::size_t>(k_) + 1) * n_ + (n_ + 1) +
         2 * bunchW_.size();
}

SpannerSketches buildSketchesOnSpanner(const Graph& g, const SpannerResult& spanner,
                                       const SketchParams& params) {
  const Graph h = subgraph(g, spanner.edges);
  SpannerSketches out{DistanceSketches(h, params),
                      (2.0 * params.k - 1.0) * spanner.stretchBound,
                      spanner.edges.size()};
  return out;
}

}  // namespace mpcspan
