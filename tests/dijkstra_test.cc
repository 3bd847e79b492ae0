#include "dijkstra/dijkstra.h"

#include "dijkstra/bidirectional.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(Dijkstra, PaperFigure1Distances) {
  Graph g = PaperFigure1Graph();
  Dijkstra dij(g);
  EXPECT_EQ(dij.Run(2, 6), 6u);  // dist(v3, v7), the paper's CH example
  EXPECT_EQ(dij.Run(0, 1), 2u);  // v1 -> v3 -> v2
  EXPECT_EQ(dij.Run(7, 3), 3u);  // v8 -> v6 -> v4
  EXPECT_EQ(dij.Run(4, 4), 0u);
}

TEST(Dijkstra, PathReconstruction) {
  Graph g = PaperFigure1Graph();
  Dijkstra dij(g);
  dij.RunAll(2);
  Path p = dij.PathTo(6);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.front(), 2u);
  EXPECT_EQ(p.back(), 6u);
  EXPECT_TRUE(IsValidPath(g, p));
  EXPECT_EQ(PathWeight(g, p), 6u);
}

TEST(Dijkstra, UnreachableVertex) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1);
  Graph g = std::move(b).Build();
  Dijkstra dij(g);
  EXPECT_EQ(dij.Run(0, 2), kInfDistance);
  dij.RunAll(0);
  EXPECT_TRUE(dij.PathTo(2).empty());
}

TEST(Dijkstra, FirstHopTracking) {
  Graph g = PaperFigure1Graph();
  Dijkstra dij(g);
  dij.RunAllWithFirstHop(7);  // from v8
  // Figure 4: v4..v7 are reached via v6 (id 5); v1, v3 via v1 (id 0).
  EXPECT_EQ(dij.FirstHopOf(3), 5u);
  EXPECT_EQ(dij.FirstHopOf(4), 5u);
  EXPECT_EQ(dij.FirstHopOf(6), 5u);
  EXPECT_EQ(dij.FirstHopOf(0), 0u);
  EXPECT_EQ(dij.FirstHopOf(2), 0u);
  EXPECT_EQ(dij.FirstHopOf(7), kInvalidVertex);
}

TEST(Dijkstra, FirstHopConsistentWithParentChain) {
  Graph g = TestNetwork(400, 9);
  Dijkstra dij(g);
  dij.RunAllWithFirstHop(0);
  for (VertexId t = 1; t < g.NumVertices(); ++t) {
    Path p = dij.PathTo(t);
    if (p.size() < 2) continue;
    EXPECT_EQ(dij.FirstHopOf(t), p[1]) << "t=" << t;
  }
}

TEST(Dijkstra, RunUntilSettledStopsEarly) {
  Graph g = TestNetwork(900, 3);
  Dijkstra dij(g);
  std::vector<VertexId> targets = {1, 2, 3};
  dij.RunUntilSettled(0, targets);
  for (VertexId t : targets) EXPECT_TRUE(dij.Settled(t));
  const size_t partial = dij.SettledCount();
  dij.RunAll(0);
  EXPECT_LT(partial, dij.SettledCount());
}

TEST(Dijkstra, RunUntilSettledToleratesDuplicateTargets) {
  Graph g = TestNetwork(200, 3);
  Dijkstra dij(g);
  std::vector<VertexId> targets = {5, 5, 5, 7};
  dij.RunUntilSettled(0, targets);
  EXPECT_TRUE(dij.Settled(5));
  EXPECT_TRUE(dij.Settled(7));
}

TEST(Dijkstra, GenerationReuseIsClean) {
  Graph g = TestNetwork(300, 5);
  Dijkstra dij(g);
  const Distance d1 = dij.Run(0, 10);
  dij.Run(20, 30);
  EXPECT_EQ(dij.Run(0, 10), d1);
}

TEST(BidirectionalDijkstra, MatchesUnidirectional) {
  Graph g = TestNetwork(700, 13);
  BidirectionalDijkstra bidi(g);
  ExpectIndexCorrect(g, &bidi, 200, 17);
}

TEST(BidirectionalDijkstra, SettlesFewerVerticesThanUnidirectional) {
  // Section 3.1's whole point: each traversal covers roughly half the
  // radius, so far queries settle fewer vertices in total.
  Graph g = TestNetwork(2500, 19);
  BidirectionalDijkstra bidi(g);
  const auto ctx = bidi.NewContext();
  Dijkstra uni(g);
  size_t bidi_total = 0, uni_total = 0;
  for (auto [s, t] : RandomPairs(g, 40, 7)) {
    bidi.DistanceQuery(ctx.get(), s, t);
    bidi_total += ctx->counters.vertices_settled;
    uni.Run(s, t);
    uni_total += uni.SettledCount();
  }
  EXPECT_LT(bidi_total, uni_total);
}

TEST(BidirectionalDijkstra, SelfQuery) {
  Graph g = TestNetwork(100, 1);
  BidirectionalDijkstra bidi(g);
  const auto ctx = bidi.NewContext();
  EXPECT_EQ(bidi.DistanceQuery(ctx.get(), 4, 4), 0u);
  Path p = bidi.PathQuery(ctx.get(), 4, 4);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 4u);
}

TEST(BidirectionalDijkstra, UnreachablePair) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  BidirectionalDijkstra bidi(g);
  const auto ctx = bidi.NewContext();
  EXPECT_EQ(bidi.DistanceQuery(ctx.get(), 0, 3), kInfDistance);
  ctx->path_distance = kPoisonDistance;
  EXPECT_TRUE(bidi.PathQuery(ctx.get(), 0, 3).empty());
  EXPECT_EQ(ctx->path_distance, kInfDistance);
}

}  // namespace
}  // namespace roadnet
