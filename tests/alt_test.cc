#include "alt/alt_index.h"

#include "dijkstra/dijkstra.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

class AltCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AltCorrectnessTest, MatchesDijkstraAcrossSeeds) {
  Graph g = TestNetwork(700, GetParam());
  AltIndex alt(g);
  ExpectIndexCorrect(g, &alt, 150, GetParam() + 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AltCorrectnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(AltIndex, LowerBoundIsAdmissible) {
  // Property: pi_t(v) <= dist(v, t) for every v, sampled t.
  Graph g = TestNetwork(500, 9);
  AltIndex alt(g);
  Dijkstra dij(g);
  for (VertexId t : {VertexId{0}, VertexId{77}, VertexId{200}}) {
    dij.RunAll(t);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_LE(alt.LowerBound(v, t), dij.DistanceTo(v))
          << "v=" << v << " t=" << t;
    }
  }
}

TEST(AltIndex, LowerBoundIsConsistent) {
  // Property: pi(v) <= w(v, u) + pi(u) for every edge (v, u) — the
  // condition that makes A* settle each vertex once.
  Graph g = TestNetwork(500, 13);
  AltIndex alt(g);
  const VertexId t = 123;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      EXPECT_LE(alt.LowerBound(v, t), a.weight + alt.LowerBound(a.to, t))
          << "edge (" << v << "," << a.to << ")";
    }
  }
}

TEST(AltIndex, LowerBoundExactAtLandmarks) {
  Graph g = TestNetwork(300, 5);
  AltIndex alt(g);
  Dijkstra dij(g);
  // From a landmark L, the bound to any t is exactly dist(L, t).
  const VertexId landmark = alt.Landmarks()[0];
  dij.RunAll(landmark);
  for (VertexId t = 0; t < g.NumVertices(); ++t) {
    EXPECT_EQ(alt.LowerBound(landmark, t), dij.DistanceTo(t));
  }
}

TEST(AltIndex, GoalDirectionBeatsDijkstra) {
  // A* with landmark bounds must settle fewer vertices than an
  // unassisted unidirectional Dijkstra on point-to-point queries.
  Graph g = TestNetwork(2500, 17);
  AltIndex alt(g);
  const auto ctx = alt.NewContext();
  Dijkstra dij(g);
  size_t alt_total = 0, dij_total = 0;
  for (auto [s, t] : RandomPairs(g, 40, 21)) {
    alt.DistanceQuery(ctx.get(), s, t);
    alt_total += ctx->counters.vertices_settled;
    dij.Run(s, t);
    dij_total += dij.SettledCount();
  }
  EXPECT_LT(alt_total * 2, dij_total);
}

TEST(AltIndex, MoreLandmarksNeverWorseBounds) {
  Graph g = TestNetwork(400, 3);
  AltConfig few;
  few.num_landmarks = 2;
  AltConfig many;
  many.num_landmarks = 12;
  AltIndex alt_few(g, few);
  AltIndex alt_many(g, many);
  // With the same seed the first two landmarks coincide, so the larger
  // set's max-bound dominates pointwise.
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const VertexId v = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    EXPECT_GE(alt_many.LowerBound(v, t), alt_few.LowerBound(v, t));
  }
}

TEST(AltIndex, HandlesSingleLandmark) {
  Graph g = TestNetwork(200, 7);
  AltConfig config;
  config.num_landmarks = 1;
  AltIndex alt(g, config);
  ExpectIndexCorrect(g, &alt, 80, 31);
}

TEST(AltIndex, UnreachablePair) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  AltIndex alt(g);
  const auto ctx = alt.NewContext();
  EXPECT_EQ(alt.DistanceQuery(ctx.get(), 0, 3), kInfDistance);
  ctx->path_distance = kPoisonDistance;
  EXPECT_TRUE(alt.PathQuery(ctx.get(), 0, 3).empty());
  EXPECT_EQ(ctx->path_distance, kInfDistance);
}

}  // namespace
}  // namespace roadnet
