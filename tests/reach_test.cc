#include "reach/reach_index.h"

#include "dijkstra/bidirectional.h"
#include "dijkstra/dijkstra.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

class ReachCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReachCorrectnessTest, MatchesDijkstraAcrossSeeds) {
  Graph g = TestNetwork(600, GetParam());
  ReachIndex re(g);
  ExpectIndexCorrect(g, &re, 150, GetParam() + 450);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachCorrectnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ReachIndex, ReachValuesAreSound) {
  // Sampled soundness: for every shortest path P(s, t) and interior v,
  // min(d(s, v), d(v, t)) <= reach(v).
  Graph g = TestNetwork(400, 9);
  ReachIndex re(g);
  Dijkstra dij(g);
  for (auto [s, t] : RandomPairs(g, 60, 3)) {
    if (dij.Run(s, t) == kInfDistance) continue;
    const Path p = dij.PathTo(t);
    Distance along = 0;
    const Distance total = PathWeight(g, p);
    for (size_t i = 1; i + 1 < p.size(); ++i) {
      along += *g.EdgeWeight(p[i - 1], p[i]);
      EXPECT_LE(std::min(along, total - along), re.ReachOf(p[i]))
          << "interior vertex " << p[i];
    }
  }
}

TEST(ReachIndex, HighwayVerticesHaveHighReach) {
  // Important (highway) vertices sit mid-way on long shortest paths, so
  // the reach distribution must be heavily skewed: the top percentile far
  // above the median.
  Graph g = TestNetwork(1600, 13);
  ReachIndex re(g);
  std::vector<Distance> reaches;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    reaches.push_back(re.ReachOf(v));
  }
  std::sort(reaches.begin(), reaches.end());
  const Distance median = reaches[reaches.size() / 2];
  const Distance p99 = reaches[reaches.size() * 99 / 100];
  EXPECT_GT(p99, median * 4);
}

TEST(ReachIndex, PruningReducesSettledVertices) {
  Graph g = TestNetwork(2500, 17);
  ReachIndex re(g);
  BidirectionalDijkstra bidi(g);
  const auto re_ctx = re.NewContext();
  const auto bidi_ctx = bidi.NewContext();
  size_t re_total = 0, bidi_total = 0;
  for (auto [s, t] : RandomPairs(g, 30, 7)) {
    re.DistanceQuery(re_ctx.get(), s, t);
    re_total += re_ctx->counters.vertices_settled;
    bidi.DistanceQuery(bidi_ctx.get(), s, t);
    bidi_total += bidi_ctx->counters.vertices_settled;
  }
  EXPECT_LT(re_total, bidi_total);
}

TEST(ReachIndex, UnreachablePair) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  ReachIndex re(g);
  const auto ctx = re.NewContext();
  EXPECT_EQ(re.DistanceQuery(ctx.get(), 0, 3), kInfDistance);
  ctx->path_distance = kPoisonDistance;
  EXPECT_TRUE(re.PathQuery(ctx.get(), 0, 3).empty());
  EXPECT_EQ(ctx->path_distance, kInfDistance);
}

TEST(ReachIndex, ChainGraphReaches) {
  // On a path graph 0-1-2-3-4 with unit weights, reach of the middle
  // vertex is 2, its neighbours 1, the endpoints 0.
  GraphBuilder b(5);
  for (uint32_t i = 0; i < 5; ++i) b.SetCoord(i, Point{int32_t(i) * 100, 0});
  for (uint32_t i = 0; i + 1 < 5; ++i) b.AddEdge(i, i + 1, 1);
  Graph g = std::move(b).Build();
  ReachIndex re(g);
  EXPECT_EQ(re.ReachOf(0), 0u);
  EXPECT_EQ(re.ReachOf(1), 1u);
  EXPECT_EQ(re.ReachOf(2), 2u);
  EXPECT_EQ(re.ReachOf(3), 1u);
  EXPECT_EQ(re.ReachOf(4), 0u);
}

}  // namespace
}  // namespace roadnet
