#include "query/build.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "graph/connectivity.hpp"
#include "graph/io.hpp"
#include "mpc/dist_spanner.hpp"
#include "mpc/simulator.hpp"
#include "spanner/baswana_sen.hpp"
#include "spanner/tradeoff.hpp"

namespace mpcspan::query {

namespace {

std::uint32_t effectiveT(std::uint32_t k, std::uint32_t t) {
  if (t != 0) return t;
  return static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::log2(static_cast<double>(std::max(k, 2u))))));
}

struct SpannerBuild {
  std::vector<EdgeId> edges;
  std::string algorithm;
  std::uint32_t k = 0;
  std::uint32_t t = 0;
  double stretch = 0;
  std::size_t rounds = 0;
  std::size_t wordsMoved = 0;
};

SpannerBuild runSpanner(const Graph& g, const BuildPlan& plan) {
  SpannerBuild out;
  out.algorithm = plan.algo;
  out.k = plan.k;
  if (plan.algo == "tradeoff") {
    SpannerResult r = buildTradeoffSpanner(g, {plan.k, plan.t, plan.seed});
    out.edges = std::move(r.edges);
    out.t = r.t;
    out.stretch = r.stretchBound;
  } else if (plan.algo == "baswana-sen") {
    SpannerResult r = buildBaswanaSen(g, {plan.k, plan.seed});
    out.edges = std::move(r.edges);
    out.stretch = r.stretchBound;
  } else if (plan.algo == "dist-baswana-sen" || plan.algo == "dist-tradeoff") {
    MpcSimulator sim(
        MpcConfig::forInput(8 * std::max<std::size_t>(g.numEdges(), 8),
                            plan.gamma, 3.0),
        plan.threads, plan.shards);
    DistSpannerResult r;
    if (plan.algo == "dist-baswana-sen") {
      r = buildDistributedBaswanaSen(sim, g, plan.k, plan.seed);
      out.stretch = 2.0 * plan.k - 1.0;
    } else {
      out.t = effectiveT(plan.k, plan.t);
      r = buildDistributedTradeoff(sim, g, plan.k, plan.t, plan.seed);
      out.stretch = tradeoffTheoreticalStretch(plan.k, out.t);
    }
    out.edges = std::move(r.edges);
    out.rounds = r.simulatorRounds;
    out.wordsMoved = r.wordsMoved;
  } else {
    throw std::invalid_argument("buildArtifact: unknown algo '" + plan.algo +
                                "' (want tradeoff | baswana-sen | "
                                "dist-tradeoff | dist-baswana-sen)");
  }
  if (out.stretch <= 0) out.stretch = 1.0;  // identity spanner (k == 1)
  return out;
}

}  // namespace

QueryArtifact buildArtifact(const Graph& g, const BuildPlan& plan) {
  SpannerBuild sb = runSpanner(g, plan);
  const Graph h = subgraph(g, sb.edges);
  const SketchParams sp{plan.sketchK, plan.sketchSeed};
  runtime::ThreadPool pool(plan.threads);
  DistanceSketches sketches(h, sp, &pool);
  const double composed = sketches.stretchBound() * sb.stretch;
  return QueryArtifact{g,
                       std::move(sb.edges),
                       std::move(sb.algorithm),
                       sb.k,
                       sb.t,
                       sb.stretch,
                       sp,
                       composed,
                       std::move(sketches),
                       plan.cacheSources,
                       sb.rounds,
                       sb.wordsMoved};
}

namespace {
constexpr std::uint32_t kArtifactMagic = 0x4151504du;  // "MPQA" little-endian
constexpr std::uint32_t kArtifactVersion = 1;
constexpr std::uint64_t kMaxSketchK = 4096;  // plausibility cap on levels
}  // namespace

void saveArtifact(const QueryArtifact& a, std::ostream& out) {
  BinWriter w(out);
  w.u32(kArtifactMagic);
  w.u32(kArtifactVersion);

  writeGraphBinary(a.graph, out);

  w.str(a.algorithm);
  w.u32(a.k);
  w.u32(a.t);
  w.f64(a.spannerStretch);
  w.u32Vec(a.spannerEdges);

  w.u32(a.sketchParams.k);
  w.u64(a.sketchParams.seed);
  w.f64(a.composedStretch);
  const SketchTables t = a.sketches.exportTables();
  w.u32(t.k);
  w.u64(t.n);
  for (const auto& row : t.pivotDist) w.f64Vec(row);
  for (const auto& row : t.pivot) w.u32Vec(row);
  w.u64Vec(t.bunchStart);
  w.u32Vec(t.bunchW);
  w.f64Vec(t.bunchDist);
  w.u32Vec(t.levelSizes);
  w.u64(t.relaxations);

  w.u64(a.cacheSources);
  w.u64(a.buildRounds);
  w.u64(a.wordsMoved);
}

QueryArtifact loadArtifact(std::istream& in) {
  BinReader r(in, "query artifact");
  if (r.u32() != kArtifactMagic)
    r.fail("bad magic (not an mpcspan query artifact)");
  const std::uint32_t version = r.u32();
  if (version != kArtifactVersion)
    r.fail("unsupported version " + std::to_string(version));

  Graph graph = readGraphBinary(in);
  const std::size_t m = graph.numEdges();

  std::string algorithm = r.str(256);
  const std::uint32_t k = r.u32();
  const std::uint32_t t = r.u32();
  const double spannerStretch = r.f64();
  std::vector<EdgeId> spannerEdges = r.u32Vec();
  for (EdgeId e : spannerEdges)
    if (e >= m) r.fail("spanner edge id out of range");

  SketchParams sp;
  sp.k = r.u32();
  sp.seed = r.u64();
  const double composedStretch = r.f64();
  SketchTables tables;
  tables.k = r.u32();
  if (tables.k == 0 || tables.k > kMaxSketchK)
    r.fail("implausible sketch level count " + std::to_string(tables.k));
  tables.n = r.count();
  if (tables.n != graph.numVertices())
    r.fail("sketch vertex count disagrees with graph");
  tables.pivotDist.resize(tables.k + 1);
  for (auto& row : tables.pivotDist) row = r.f64Vec();
  tables.pivot.resize(tables.k + 1);
  for (auto& row : tables.pivot) row = r.u32Vec();
  tables.bunchStart = r.u64Vec();
  tables.bunchW = r.u32Vec();
  tables.bunchDist = r.f64Vec();
  tables.levelSizes = r.u32Vec();
  tables.relaxations = r.u64();

  const std::size_t cacheSources = static_cast<std::size_t>(r.count());
  const std::size_t buildRounds = static_cast<std::size_t>(r.u64());
  const std::size_t wordsMoved = static_cast<std::size_t>(r.u64());
  r.expectEof();

  // The adopting constructor validates every table invariant; surface its
  // rejection as a corrupt-artifact error. Nothing partial escapes: the
  // artifact is returned only after this succeeds.
  try {
    DistanceSketches sketches(std::move(tables));
    return QueryArtifact{std::move(graph),
                         std::move(spannerEdges),
                         std::move(algorithm),
                         k,
                         t,
                         spannerStretch,
                         sp,
                         composedStretch,
                         std::move(sketches),
                         cacheSources,
                         buildRounds,
                         wordsMoved};
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("query artifact: corrupt sketch tables: ") +
                             e.what());
  }
}

void saveArtifactFile(const QueryArtifact& a, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  saveArtifact(a, out);
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + path);
}

QueryArtifact loadArtifactFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return loadArtifact(in);
}

QueryPlane makeQueryPlane(const QueryArtifact& a, const QueryPlaneOptions& opt) {
  QueryPlane plane;
  plane.graph = std::make_shared<const Graph>(a.graph);
  plane.sketches = std::make_shared<const DistanceSketches>(a.sketches);

  SpannerResult sr;
  sr.edges = a.spannerEdges;
  sr.algorithm = a.algorithm;
  sr.k = a.k;
  sr.t = a.t;
  sr.stretchBound = a.spannerStretch;
  sr.inputVertices = a.graph.numVertices();
  sr.inputEdges = a.graph.numEdges();
  plane.oracle = std::make_shared<SpannerDistanceOracle>(
      *plane.graph, std::move(sr), a.cacheSources);

  std::vector<std::shared_ptr<const DistanceProvider>> tiers;
  tiers.push_back(
      std::make_shared<SketchDistanceProvider>(plane.sketches, a.composedStretch));
  tiers.push_back(std::make_shared<SpannerOracleProvider>(
      std::shared_ptr<const SpannerDistanceOracle>(plane.oracle),
      opt.spannerCachedOnly ? SpannerOracleProvider::Mode::kCachedOnly
                            : SpannerOracleProvider::Mode::kCompute,
      a.spannerStretch));
  tiers.push_back(std::make_shared<ExactDistanceProvider>(plane.graph));
  plane.tiered = std::make_shared<TieredOracle>(std::move(tiers));
  return plane;
}

}  // namespace mpcspan::query
