#include "workload/query_gen.h"

#include "dijkstra/dijkstra.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(Datasets, TenSpecsInAscendingSize) {
  const auto& specs = PaperDatasets();
  ASSERT_EQ(specs.size(), 10u);
  EXPECT_EQ(specs.front().name, "DE'");
  EXPECT_EQ(specs.back().name, "US'");
  for (size_t i = 0; i + 1 < specs.size(); ++i) {
    EXPECT_LT(specs[i].target_vertices, specs[i + 1].target_vertices);
  }
}

TEST(Datasets, BuildIsDeterministic) {
  const auto& spec = PaperDatasets()[0];
  Graph a = BuildDataset(spec);
  Graph b = BuildDataset(spec);
  EXPECT_EQ(a.NumVertices(), b.NumVertices());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
}

TEST(QueryGen, LInfBucketsRespectBounds) {
  Graph g = TestNetwork(2500, 5);
  const auto sets = GenerateLInfQuerySets(g, 50, 7);
  ASSERT_EQ(sets.size(), 10u);
  const Rect& b = g.Bounds();
  const int64_t span = std::max<int64_t>(
      std::max(static_cast<int64_t>(b.max_x) - b.min_x,
               static_cast<int64_t>(b.max_y) - b.min_y),
      1024);
  const int64_t l = (span + 1023) / 1024;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sets[i].name, "Q" + std::to_string(i + 1));
    const int64_t lo = l << i;
    const int64_t hi = l << (i + 1);
    for (auto [s, t] : sets[i].pairs) {
      const int64_t d = LInfDistance(g.Coord(s), g.Coord(t));
      EXPECT_GE(d, lo) << sets[i].name;
      EXPECT_LT(d, hi) << sets[i].name;
      EXPECT_NE(s, t);
    }
  }
}

TEST(QueryGen, LInfNearAndFarBucketsFill) {
  Graph g = TestNetwork(2500, 9);
  const auto sets = GenerateLInfQuerySets(g, 40, 3);
  // Q1 (closest) and the largest populatable bucket must both fill: the
  // generator combines rejection and targeted ring sampling.
  EXPECT_EQ(sets[0].pairs.size(), 40u);
  size_t filled = 0;
  for (const auto& s : sets) {
    if (s.pairs.size() == 40u) ++filled;
  }
  EXPECT_GE(filled, 6u);
}

TEST(QueryGen, LInfDeterministicPerSeed) {
  Graph g = TestNetwork(800, 3);
  const auto a = GenerateLInfQuerySets(g, 20, 11);
  const auto b = GenerateLInfQuerySets(g, 20, 11);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a[i].pairs, b[i].pairs);
  }
}

TEST(QueryGen, NetworkDistanceBucketsRespectBounds) {
  Graph g = TestNetwork(1200, 13);
  const auto sets = GenerateNetworkDistanceQuerySets(g, 30, 17);
  ASSERT_EQ(sets.size(), 10u);
  Dijkstra dij(g);
  // Recompute ld exactly as the generator does (corner eccentricity).
  VertexId corner = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (static_cast<int64_t>(g.Coord(v).x) + g.Coord(v).y <
        static_cast<int64_t>(g.Coord(corner).x) + g.Coord(corner).y) {
      corner = v;
    }
  }
  dij.RunAll(corner);
  Distance ld = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (dij.DistanceTo(v) != kInfDistance) {
      ld = std::max(ld, dij.DistanceTo(v));
    }
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sets[i].name, "R" + std::to_string(i + 1));
    const Distance lo = ld >> (10 - i);
    const Distance hi = ld >> (9 - i);
    for (auto [s, t] : sets[i].pairs) {
      const Distance d = dij.Run(s, t);
      EXPECT_GE(d, lo) << sets[i].name;
      EXPECT_LT(d, hi) << sets[i].name;
    }
  }
}

TEST(QueryGen, NetworkDistanceSetsMostlyFill) {
  Graph g = TestNetwork(1200, 19);
  const auto sets = GenerateNetworkDistanceQuerySets(g, 30, 23);
  size_t filled = 0;
  for (const auto& s : sets) {
    if (s.pairs.size() == 30u) ++filled;
  }
  EXPECT_GE(filled, 6u);
}

}  // namespace
}  // namespace roadnet
