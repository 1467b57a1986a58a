// Thorup–Zwick distance sketches, and the spanner-accelerated variant.
//
// The paper motivates its spanners partly through [DN19]: distance-sketch
// preprocessing is dominated by graph size, so computing the sketches on a
// near-linear-size spanner instead of the input graph cuts the work from
// O~(m n^{1/k}) to O~(n^{1+1/k+o(1)}) at a multiplicative stretch cost.
// This module implements the classical Thorup–Zwick construction
// (levels A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}, pivots, bunches; stretch 2k-1 and
// expected bunch size O(k n^{1/k})) plus a helper that builds it on top of
// any SpannerResult, with the composed stretch certificate.
//
// The build runs on a runtime::ThreadPool. The k pivot Dijkstras run one
// level per task; every bunch source (each vertex is one, at its top
// level) is one task. A lane searches on its own dense distance array,
// reset through a touched list, and appends each source's settled (v, d)
// list to its own emission blocks; the source's slot records where the
// list landed and how many relaxations it took. A counting sort by v,
// scattering sources in increasing w, then yields the flat tables. The
// tables are bit-identical at every lane count and schedule.
//
// Bunches are stored as flat per-vertex (w, dist) arrays sorted by w —
// query is a binary search over a contiguous segment, and the whole
// structure round-trips through SketchTables for the build-once /
// serve-many query artifacts (src/query/build.hpp). All query methods are
// const and safe to call concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/thread_pool.hpp"
#include "spanner/types.hpp"

namespace mpcspan {

struct SketchParams {
  std::uint32_t k = 3;  // levels; stretch 2k-1
  std::uint64_t seed = 1;
};

/// The complete serialized state of a DistanceSketches instance: everything
/// queries touch, exported for artifact save and adopted on artifact load
/// (no rebuild). Field invariants are validated by the adopting
/// constructor.
struct SketchTables {
  std::uint32_t k = 0;
  std::uint64_t n = 0;
  // pivotDist[i][v] = d(A_i, v); pivot[i][v] = the realizing vertex.
  // k+1 levels each (level k = empty set, distance infinity).
  std::vector<std::vector<Weight>> pivotDist;
  std::vector<std::vector<VertexId>> pivot;
  // Bunch of v: entries [bunchStart[v], bunchStart[v+1]) of the flat
  // arrays, sorted by bunchW within the segment.
  std::vector<std::uint64_t> bunchStart;  // n + 1 offsets
  std::vector<VertexId> bunchW;
  std::vector<Weight> bunchDist;
  std::vector<VertexId> levelSizes;
  std::uint64_t relaxations = 0;
};

class DistanceSketches {
 public:
  /// Builds on `pool`; nullptr builds on a pool of
  /// ThreadPool::defaultThreads() lanes that is joined before returning.
  /// The tables are the same at every lane count.
  DistanceSketches(const Graph& g, const SketchParams& params,
                   runtime::ThreadPool* pool = nullptr);

  /// Adopts prebuilt tables (artifact load path). Throws
  /// std::invalid_argument on any internal inconsistency (size mismatch,
  /// non-monotone bunch offsets, out-of-range ids), so a corrupt artifact
  /// fails cleanly instead of constructing a partially valid sketch.
  explicit DistanceSketches(SketchTables tables);

  /// Copies the query state out for serialization.
  SketchTables exportTables() const;

  /// Estimated distance; at most (2k-1) * d(u,v), at least d(u,v).
  /// kInfDist when u,v are disconnected. Thread-safe (const state only).
  Weight query(VertexId u, VertexId v) const;

  std::uint32_t k() const { return k_; }
  std::size_t numVertices() const { return n_; }
  double stretchBound() const { return 2.0 * k_ - 1.0; }

  /// Sum of bunch sizes (the sketch storage; expected O(k n^{1+1/k})).
  std::size_t totalBunchEntries() const { return bunchW_.size(); }

  /// Resident size in 8-byte words (pivot tables + flat bunch arrays).
  std::size_t memoryWords() const;

  /// Edge relaxations performed during preprocessing (the [DN19] cost that
  /// spanners shrink).
  std::size_t preprocessingRelaxations() const { return relaxations_; }

  const std::vector<VertexId>& levelSizes() const { return levelSizes_; }

 private:
  void build(const Graph& g, std::uint64_t seed, runtime::ThreadPool& pool);

  std::uint32_t k_;
  std::size_t n_;
  // pivotDist_[i][v] = d(A_i, v); pivot_[i][v] = the realizing vertex.
  std::vector<std::vector<Weight>> pivotDist_;
  std::vector<std::vector<VertexId>> pivot_;
  // Flat bunches: the bunch of v is the w-sorted segment
  // [bunchStart_[v], bunchStart_[v+1]) of (bunchW_, bunchDist_).
  std::vector<std::uint64_t> bunchStart_;
  std::vector<VertexId> bunchW_;
  std::vector<Weight> bunchDist_;
  std::vector<VertexId> levelSizes_;
  std::size_t relaxations_ = 0;
};

/// Sketches computed on the spanner instead of g (the [DN19] application).
/// The composed stretch certificate is (2k-1) * spanner.stretchBound.
struct SpannerSketches {
  DistanceSketches sketches;
  double composedStretchBound = 0;
  std::size_t spannerEdges = 0;
};

SpannerSketches buildSketchesOnSpanner(const Graph& g, const SpannerResult& spanner,
                                       const SketchParams& params);

}  // namespace mpcspan
