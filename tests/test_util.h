#ifndef ROADNET_TESTS_TEST_UTIL_H_
#define ROADNET_TESTS_TEST_UTIL_H_

#include <utility>
#include <vector>

#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "routing/path.h"
#include "routing/path_index.h"
#include "util/rng.h"

#include "gtest/gtest.h"

namespace roadnet {

// The paper's 8-vertex example network (Figure 1): edges (v2,v8) and
// (v6,v8) have weight 2, all others weight 1. Vertex ids are zero-based,
// so paper vertex v_i is id i-1. Coordinates roughly follow the figure.
inline Graph PaperFigure1Graph() {
  GraphBuilder b(8);
  // v1..v8 = ids 0..7
  b.SetCoord(0, Point{0, 2});   // v1
  b.SetCoord(1, Point{1, 3});   // v2
  b.SetCoord(2, Point{1, 1});   // v3
  b.SetCoord(3, Point{4, 0});   // v4
  b.SetCoord(4, Point{5, 1});   // v5
  b.SetCoord(5, Point{4, 2});   // v6
  b.SetCoord(6, Point{6, 2});   // v7
  b.SetCoord(7, Point{2, 3});   // v8
  // Edge set reverse-engineered from the paper's walkthroughs: v1 and v2
  // each neighbour exactly {v3, v8}; contracting v1 yields shortcut
  // (v3, v8) of weight 2; contracting v5 yields (v7, v6) of weight 2 and
  // contracting v6 yields (v7, v8) of weight 4; the CH query example gives
  // dist(v3, v7) = 6; SILC's Figure 4 routes v8's paths to v4..v7 through
  // v6. All of that pins the nine edges to:
  b.AddEdge(0, 2, 1);  // (v1, v3)
  b.AddEdge(0, 7, 1);  // (v1, v8)
  b.AddEdge(1, 2, 1);  // (v2, v3)
  b.AddEdge(1, 7, 2);  // (v2, v8), weight 2
  b.AddEdge(3, 4, 1);  // (v4, v5)
  b.AddEdge(3, 5, 1);  // (v4, v6)
  b.AddEdge(4, 5, 1);  // (v5, v6)
  b.AddEdge(4, 6, 1);  // (v5, v7)
  b.AddEdge(5, 7, 2);  // (v6, v8), weight 2
  return std::move(b).Build();
}

// Small deterministic synthetic network for tests.
inline Graph TestNetwork(uint32_t target_vertices, uint64_t seed) {
  GeneratorConfig config;
  config.target_vertices = target_vertices;
  config.seed = seed;
  config.highway_period = 8;
  return GenerateRoadNetwork(config);
}

// Draws `count` random (s, t) pairs.
inline std::vector<std::pair<VertexId, VertexId>> RandomPairs(
    const Graph& g, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.NextBelow(g.NumVertices())),
                       static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
  }
  return pairs;
}

// Planted in ctx->path_distance before a PathQuery under test. No real
// distance equals it and it is not kInfDistance, so a PathQuery that
// returns without setting the field fails the check that follows.
inline constexpr Distance kPoisonDistance = kInfDistance - 1;

// Checks an index against Dijkstra ground truth on random queries: the
// distance must match exactly, the path must be a real path in g whose
// weight equals the distance, and PathQuery must report that distance in
// ctx->path_distance. Ends with one s == t query: the path {s}, length 0.
inline void ExpectIndexCorrect(const Graph& g, const PathIndex* index,
                               size_t num_queries, uint64_t seed) {
  Dijkstra reference(g);
  const auto ctx = index->NewContext();
  for (auto [s, t] : RandomPairs(g, num_queries, seed)) {
    const Distance truth = reference.Run(s, t);
    EXPECT_EQ(index->DistanceQuery(ctx.get(), s, t), truth)
        << index->Name() << " distance mismatch for s=" << s << " t=" << t;
    ctx->path_distance = kPoisonDistance;
    Path path = index->PathQuery(ctx.get(), s, t);
    EXPECT_EQ(ctx->path_distance, truth)
        << index->Name() << " path distance mismatch for s=" << s
        << " t=" << t;
    if (truth == kInfDistance) {
      EXPECT_TRUE(path.empty());
      continue;
    }
    ASSERT_FALSE(path.empty())
        << index->Name() << " returned no path for s=" << s << " t=" << t;
    EXPECT_EQ(path.front(), s) << index->Name();
    EXPECT_EQ(path.back(), t) << index->Name();
    EXPECT_TRUE(IsValidPath(g, path))
        << index->Name() << " path has a non-edge hop, s=" << s
        << " t=" << t;
    EXPECT_EQ(PathWeight(g, path), truth)
        << index->Name() << " path weight mismatch, s=" << s << " t=" << t;
  }
  const VertexId v = static_cast<VertexId>(seed % g.NumVertices());
  ctx->path_distance = kPoisonDistance;
  EXPECT_EQ(index->PathQuery(ctx.get(), v, v), Path{v}) << index->Name();
  EXPECT_EQ(ctx->path_distance, 0u) << index->Name() << " s == t = " << v;
}

}  // namespace roadnet

#endif  // ROADNET_TESTS_TEST_UTIL_H_
