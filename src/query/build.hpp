// Build once, serve many: the query artifact.
//
// buildArtifact runs the full pipeline — spanner construction (host engine
// or the sharded MPC simulator), Thorup–Zwick sketches on the spanner —
// and captures everything serving needs in one QueryArtifact. The artifact
// saves to a versioned binary file (BinWriter/BinReader, graph/io.hpp) and
// loads back without *any* recomputation: sketches are adopted from their
// serialized tables, the oracle rebuilt from the stored spanner edge ids.
// An artifact built by the distributed sharded pipeline is served
// identically to a host-built one.
//
// makeQueryPlane assembles the serving stack from a loaded (or
// freshly built) artifact: sketch -> spanner-cache -> exact, wired into a
// TieredOracle.
//
// File layout (little-endian; all counts bounds-checked on load, any
// truncation or corruption throws std::runtime_error before any partially
// valid object escapes):
//   "MPQA" magic, version u32
//   graph section       (writeGraphBinary)
//   spanner section     algorithm str, k u32, t u32, stretch f64,
//                       edge-id vec (validated < m)
//   sketch section      params (k u32, seed u64), composed stretch f64,
//                       SketchTables (validated by the adopting ctor)
//   serving section     cacheSources u64, buildRounds u64, wordsMoved u64
//   EOF                 (trailing bytes are an error)
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "apsp/oracle.hpp"
#include "apsp/sketches.hpp"
#include "graph/graph.hpp"
#include "query/adapters.hpp"
#include "query/tiered.hpp"

namespace mpcspan::query {

/// Everything buildArtifact needs to know. `algo` is one of "tradeoff",
/// "baswana-sen" (host engine), "dist-tradeoff", "dist-baswana-sen"
/// (sharded MPC simulator; `shards`/`gamma` apply). `threads` applies to
/// every algo: the sketch build's lanes, and the simulator's for dist-*.
struct BuildPlan {
  std::string algo = "tradeoff";
  std::uint32_t k = 8;
  std::uint32_t t = 0;  // tradeoff growth iterations; 0 = ceil(log2 k)
  std::uint64_t seed = 1;
  std::uint32_t sketchK = 3;
  std::uint64_t sketchSeed = 1;
  std::size_t cacheSources = 64;  // oracle LRU capacity when serving
  std::size_t threads = 0;        // build lanes: dist-* simulator and sketch
                                  // build; 0 = MPCSPAN_THREADS/hardware.
                                  // The artifact is the same at any count.
  std::size_t shards = 0;         // dist-*: simulator shards
  double gamma = 0.5;             // dist-*: machine memory exponent
};

/// The serve-side state: input graph, spanner (edge ids + certified
/// stretch), sketches built on the spanner, and serving parameters.
struct QueryArtifact {
  Graph graph;
  std::vector<EdgeId> spannerEdges;  // ids into graph.edges(), sorted
  std::string algorithm;
  std::uint32_t k = 0;
  std::uint32_t t = 0;
  double spannerStretch = 0;  // certified (host) or theoretical (dist-*)
  SketchParams sketchParams;
  double composedStretch = 0;  // sketch stretch * spanner stretch
  DistanceSketches sketches;   // built on the spanner subgraph
  std::size_t cacheSources = 64;
  std::size_t buildRounds = 0;  // dist-*: simulator communication rounds
  std::size_t wordsMoved = 0;   // dist-*: total words routed
};

QueryArtifact buildArtifact(const Graph& g, const BuildPlan& plan);

void saveArtifact(const QueryArtifact& a, std::ostream& out);
QueryArtifact loadArtifact(std::istream& in);
void saveArtifactFile(const QueryArtifact& a, const std::string& path);
QueryArtifact loadArtifactFile(const std::string& path);

/// The assembled serving stack. Owns all backing structures; `tiered` is
/// the entry point. `oracle` is exposed so callers can warm its cache.
struct QueryPlane {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const DistanceSketches> sketches;
  std::shared_ptr<SpannerDistanceOracle> oracle;
  std::shared_ptr<TieredOracle> tiered;
};

struct QueryPlaneOptions {
  /// Middle tier answers only from resident cache rows (declining
  /// otherwise) instead of computing on miss. On by default — it is what
  /// keeps the tier cheap; the exact tier backstops cold pairs.
  bool spannerCachedOnly = true;
};

/// Assembles sketch -> spanner -> exact over the artifact's structures.
/// Copies the artifact's graph and sketches into shared ownership; the
/// artifact itself need not outlive the plane.
QueryPlane makeQueryPlane(const QueryArtifact& a,
                          const QueryPlaneOptions& opt = {});

}  // namespace mpcspan::query
