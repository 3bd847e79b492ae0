#include "hiti/partition_overlay.h"

#include "dijkstra/dijkstra.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

class HitiCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HitiCorrectnessTest, MatchesDijkstraAcrossSeeds) {
  Graph g = TestNetwork(600, GetParam());
  PartitionOverlayConfig config;
  config.region_resolution = 5;
  PartitionOverlayIndex hiti(g, config);
  ExpectIndexCorrect(g, &hiti, 150, GetParam() + 800);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HitiCorrectnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(PartitionOverlay, BoundaryDetection) {
  Graph g = TestNetwork(500, 7);
  PartitionOverlayConfig config;
  config.region_resolution = 4;
  PartitionOverlayIndex hiti(g, config);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    bool has_crossing = false;
    for (const Arc& a : g.Neighbors(v)) {
      if (hiti.RegionOf(a.to) != hiti.RegionOf(v)) has_crossing = true;
    }
    EXPECT_EQ(hiti.IsBoundary(v), has_crossing) << "v=" << v;
  }
}

TEST(PartitionOverlay, SkipsForeignInteriors) {
  // On far queries the overlay search must settle fewer vertices than a
  // full unidirectional Dijkstra: foreign-region interiors are bypassed.
  Graph g = TestNetwork(2500, 9);
  PartitionOverlayIndex hiti(g);
  const auto ctx = hiti.NewContext();
  Dijkstra dij(g);
  size_t hiti_total = 0, dij_total = 0;
  for (auto [s, t] : RandomPairs(g, 30, 3)) {
    hiti.DistanceQuery(ctx.get(), s, t);
    hiti_total += ctx->counters.vertices_settled;
    dij.Run(s, t);
    dij_total += dij.SettledCount();
  }
  EXPECT_LT(hiti_total * 3, dij_total * 2);  // at least ~33% fewer
}

TEST(PartitionOverlay, SameRegionQueriesAreExact) {
  Graph g = TestNetwork(800, 11);
  PartitionOverlayConfig config;
  config.region_resolution = 3;  // big regions: same-region pairs common
  PartitionOverlayIndex hiti(g, config);
  const auto ctx = hiti.NewContext();
  Dijkstra dij(g);
  size_t same_region = 0;
  for (auto [s, t] : RandomPairs(g, 200, 13)) {
    if (hiti.RegionOf(s) != hiti.RegionOf(t)) continue;
    ++same_region;
    EXPECT_EQ(hiti.DistanceQuery(ctx.get(), s, t), dij.Run(s, t));
  }
  EXPECT_GT(same_region, 5u);
}

TEST(PartitionOverlay, SingleRegionDegeneratesToDijkstra) {
  Graph g = TestNetwork(300, 5);
  PartitionOverlayConfig config;
  config.region_resolution = 1;
  PartitionOverlayIndex hiti(g, config);
  EXPECT_EQ(hiti.NumRegions(), 1u);
  ExpectIndexCorrect(g, &hiti, 60, 15);
}

TEST(PartitionOverlay, UnreachablePair) {
  GraphBuilder b(4);
  b.SetCoord(0, Point{0, 0});
  b.SetCoord(1, Point{10, 0});
  b.SetCoord(2, Point{10000, 10000});
  b.SetCoord(3, Point{10010, 10000});
  b.AddEdge(0, 1, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  PartitionOverlayIndex hiti(g);
  const auto ctx = hiti.NewContext();
  EXPECT_EQ(hiti.DistanceQuery(ctx.get(), 0, 3), kInfDistance);
  ctx->path_distance = kPoisonDistance;
  EXPECT_TRUE(hiti.PathQuery(ctx.get(), 0, 3).empty());
  EXPECT_EQ(ctx->path_distance, kInfDistance);
}

}  // namespace
}  // namespace roadnet
