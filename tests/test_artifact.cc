// Query artifacts: build-once/serve-many round trips, and corruption
// resistance — truncated or bit-flipped artifacts must fail with a clean
// std::runtime_error, never a partially valid object or a huge allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/distance.hpp"
#include "graph/generators.hpp"
#include "query/build.hpp"

namespace mpcspan {
namespace {

Graph testGraph(std::size_t n = 120, std::size_t m = 480) {
  Rng rng(8);
  return gnmRandom(n, m, rng, {WeightModel::kUniform, 20.0}, /*connected=*/true);
}

query::QueryArtifact buildSmall(const std::string& algo = "baswana-sen") {
  query::BuildPlan plan;
  plan.algo = algo;
  plan.k = 3;
  plan.sketchK = 2;
  plan.cacheSources = 16;
  return query::buildArtifact(testGraph(), plan);
}

std::string serialized(const query::QueryArtifact& a) {
  std::ostringstream out(std::ios::binary);
  query::saveArtifact(a, out);
  return out.str();
}

TEST(Artifact, RoundTripPreservesEveryQueryAnswer) {
  const auto a = buildSmall();
  std::istringstream in(serialized(a), std::ios::binary);
  const auto b = query::loadArtifact(in);

  EXPECT_EQ(b.graph.numVertices(), a.graph.numVertices());
  EXPECT_EQ(b.graph.numEdges(), a.graph.numEdges());
  EXPECT_EQ(b.graph.edges(), a.graph.edges());
  EXPECT_EQ(b.spannerEdges, a.spannerEdges);
  EXPECT_EQ(b.algorithm, a.algorithm);
  EXPECT_EQ(b.k, a.k);
  EXPECT_EQ(b.spannerStretch, a.spannerStretch);
  EXPECT_EQ(b.composedStretch, a.composedStretch);
  EXPECT_EQ(b.cacheSources, a.cacheSources);
  EXPECT_EQ(b.sketches.totalBunchEntries(), a.sketches.totalBunchEntries());

  // The loaded sketches answer bit-identically (no recomputation happened:
  // the tables were adopted as-is).
  for (VertexId u = 0; u < a.graph.numVertices(); u += 5)
    for (VertexId v = 0; v < a.graph.numVertices(); v += 3)
      EXPECT_EQ(b.sketches.query(u, v), a.sketches.query(u, v)) << u << "," << v;
}

TEST(Artifact, ReloadedPlaneServesWithoutRebuild) {
  const auto a = buildSmall();
  std::istringstream in(serialized(a), std::ios::binary);
  const auto b = query::loadArtifact(in);
  const auto planeA = query::makeQueryPlane(a);
  const auto planeB = query::makeQueryPlane(b);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    const auto v = static_cast<VertexId>(rng.next(a.graph.numVertices()));
    EXPECT_EQ(planeB.tiered->query(u, v), planeA.tiered->query(u, v));
  }
}

TEST(Artifact, DistributedBuildRoundTrips) {
  // An artifact produced by the sharded MPC pipeline reloads and serves
  // like a host-built one; the simulator's ledger rides along.
  query::BuildPlan plan;
  plan.algo = "dist-baswana-sen";
  plan.k = 3;
  plan.sketchK = 2;
  const auto a = query::buildArtifact(testGraph(), plan);
  EXPECT_GT(a.buildRounds, 0u);
  std::istringstream in(serialized(a), std::ios::binary);
  const auto b = query::loadArtifact(in);
  EXPECT_EQ(b.buildRounds, a.buildRounds);
  EXPECT_EQ(b.wordsMoved, a.wordsMoved);
  EXPECT_EQ(b.spannerEdges, a.spannerEdges);
  const auto plane = query::makeQueryPlane(b);
  const Weight est = plane.tiered->query(0, 7);
  const Weight exact = dijkstraPair(b.graph, 0, 7);
  EXPECT_GE(est, exact - 1e-12);
  EXPECT_LE(est, b.composedStretch * exact + 1e-9);
}

TEST(Artifact, BuildIsByteIdenticalAtAnyLaneCount) {
  // The sketch build runs on BuildPlan::threads lanes; the saved bytes
  // must not depend on how many.
  query::BuildPlan plan;
  plan.algo = "tradeoff";
  plan.k = 4;
  plan.sketchK = 3;
  const Graph g = testGraph(600, 3000);
  plan.threads = 1;
  const std::string one = serialized(query::buildArtifact(g, plan));
  plan.threads = 4;
  const std::string four = serialized(query::buildArtifact(g, plan));
  EXPECT_EQ(one.size(), four.size());
  EXPECT_TRUE(one == four);
}

TEST(Artifact, FileRoundTrip) {
  const auto a = buildSmall();
  const std::string path = testing::TempDir() + "artifact_roundtrip.mpqa";
  query::saveArtifactFile(a, path);
  const auto b = query::loadArtifactFile(path);
  EXPECT_EQ(b.spannerEdges, a.spannerEdges);
  std::remove(path.c_str());
}

TEST(Artifact, BadMagicAndVersionAreRejected) {
  const auto a = buildSmall();
  std::string bytes = serialized(a);
  {
    std::string bad = bytes;
    bad[0] = 'X';
    std::istringstream in(bad, std::ios::binary);
    EXPECT_THROW(query::loadArtifact(in), std::runtime_error);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;  // version field
    std::istringstream in(bad, std::ios::binary);
    EXPECT_THROW(query::loadArtifact(in), std::runtime_error);
  }
}

TEST(Artifact, EveryTruncationFailsCleanly) {
  const auto a = buildSmall();
  const std::string bytes = serialized(a);
  ASSERT_GT(bytes.size(), 64u);
  // Truncate at a spread of prefixes crossing every section boundary.
  for (std::size_t frac = 0; frac <= 20; ++frac) {
    const std::size_t len = bytes.size() * frac / 21;
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(query::loadArtifact(in), std::runtime_error) << "len=" << len;
  }
  // One byte short.
  std::istringstream in(bytes.substr(0, bytes.size() - 1), std::ios::binary);
  EXPECT_THROW(query::loadArtifact(in), std::runtime_error);
}

TEST(Artifact, TrailingGarbageIsRejected) {
  const auto a = buildSmall();
  std::istringstream in(serialized(a) + "x", std::ios::binary);
  EXPECT_THROW(query::loadArtifact(in), std::runtime_error);
}

TEST(Artifact, CorruptSketchTablesAreRejected) {
  const auto a = buildSmall();
  const std::string bytes = serialized(a);
  // Flip bytes across the payload; every mutation must either load to a
  // fully valid artifact (the flip hit a don't-care bit such as a weight
  // mantissa) or throw std::runtime_error — never crash, never hand back
  // partial state.
  std::size_t rejected = 0;
  for (std::size_t pos = 8; pos < bytes.size(); pos += bytes.size() / 97 + 1) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
    std::istringstream in(bad, std::ios::binary);
    try {
      const auto b = query::loadArtifact(in);
      // Loaded: the artifact must be internally consistent enough to serve.
      (void)b.sketches.query(0, 1);
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);  // at least some flips hit validated fields
}

TEST(Artifact, UnknownAlgoIsRejectedAtBuildTime) {
  query::BuildPlan plan;
  plan.algo = "nope";
  EXPECT_THROW(query::buildArtifact(testGraph(), plan), std::invalid_argument);
}

}  // namespace
}  // namespace mpcspan
