#include "arcflags/arc_flags.h"

#include "dijkstra/dijkstra.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

class ArcFlagsCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArcFlagsCorrectnessTest, MatchesDijkstraAcrossSeeds) {
  Graph g = TestNetwork(600, GetParam());
  ArcFlagsConfig config;
  config.region_resolution = 6;
  ArcFlagsIndex af(g, config);
  ExpectIndexCorrect(g, &af, 150, GetParam() + 700);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArcFlagsCorrectnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ArcFlags, PruningActuallyPrunes) {
  // On far queries the flagged search must settle fewer vertices than the
  // unpruned unidirectional Dijkstra.
  Graph g = TestNetwork(2500, 9);
  ArcFlagsIndex af(g);
  const auto ctx = af.NewContext();
  Dijkstra dij(g);
  size_t af_total = 0, dij_total = 0;
  for (auto [s, t] : RandomPairs(g, 30, 3)) {
    af.DistanceQuery(ctx.get(), s, t);
    af_total += ctx->counters.vertices_settled;
    dij.Run(s, t);
    dij_total += dij.SettledCount();
  }
  EXPECT_LT(af_total * 2, dij_total);
}

TEST(ArcFlags, IntraRegionArcsAlwaysFlagged) {
  Graph g = TestNetwork(500, 11);
  ArcFlagsConfig config;
  config.region_resolution = 4;
  ArcFlagsIndex af(g, config);
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    size_t idx = g.FirstArcIndex(u);
    for (const Arc& a : g.Neighbors(u)) {
      EXPECT_TRUE(af.ArcFlag(idx, af.RegionOf(a.to)))
          << "arc head region must always be flagged";
      ++idx;
    }
  }
}

TEST(ArcFlags, ShortestPathTreeArcsFlaggedForEveryTargetRegion) {
  // Completeness property behind exactness: for random (s, t), every arc
  // of the Dijkstra-found shortest path carries the flag of t's region.
  Graph g = TestNetwork(700, 21);
  ArcFlagsConfig config;
  config.region_resolution = 6;
  ArcFlagsIndex af(g, config);
  Dijkstra dij(g);
  for (auto [s, t] : RandomPairs(g, 60, 7)) {
    if (dij.Run(s, t) == kInfDistance) continue;
    Path p = dij.PathTo(t);
    for (size_t i = 0; i + 1 < p.size(); ++i) {
      // Locate the arc position of (p[i], p[i+1]).
      size_t idx = g.FirstArcIndex(p[i]);
      auto arcs = g.Neighbors(p[i]);
      for (size_t k = 0; k < arcs.size(); ++k) {
        if (arcs[k].to == p[i + 1]) {
          EXPECT_TRUE(af.ArcFlag(idx + k, af.RegionOf(t)))
              << "arc (" << p[i] << "," << p[i + 1] << ") toward region of "
              << t;
          break;
        }
      }
    }
  }
}

TEST(ArcFlags, SingleRegionDegeneratesToDijkstra) {
  Graph g = TestNetwork(300, 5);
  ArcFlagsConfig config;
  config.region_resolution = 1;
  ArcFlagsIndex af(g, config);
  EXPECT_EQ(af.NumRegions(), 1u);
  ExpectIndexCorrect(g, &af, 60, 17);
}

}  // namespace
}  // namespace roadnet
