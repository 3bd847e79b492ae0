#include "silc/silc_index.h"

#include "dijkstra/dijkstra.h"
#include "silc/color_quadtree.h"
#include "spatial/morton.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(Morton, RoundTrips) {
  for (uint32_t x : {0u, 1u, 7u, 255u, 70000u, 0x7fffffffu}) {
    for (uint32_t y : {0u, 3u, 1024u, 0x55555555u}) {
      const uint64_t code = MortonEncode(x, y);
      EXPECT_EQ(MortonX(code), x);
      EXPECT_EQ(MortonY(code), y);
    }
  }
}

TEST(Morton, PreservesQuadrantOrder) {
  // All codes in the lower-left quadrant of an aligned square precede the
  // other quadrants — the property the quadtree intervals rely on.
  EXPECT_LT(MortonEncode(1, 1), MortonEncode(2, 0));
  EXPECT_LT(MortonEncode(3, 1), MortonEncode(0, 2));
  EXPECT_LT(MortonEncode(3, 3), MortonEncode(4, 0));
}

TEST(MortonSpace, SortedOrderIsConsistent) {
  Graph g = TestNetwork(300, 5);
  MortonSpace space(g);
  const auto& order = space.SortedVertices();
  const auto& codes = space.SortedCodes();
  ASSERT_EQ(order.size(), g.NumVertices());
  for (size_t i = 0; i + 1 < codes.size(); ++i) {
    EXPECT_LE(codes[i], codes[i + 1]);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(space.CodeOf(order[i]), codes[i]);
  }
}

TEST(CompressColors, UniformColoringIsOneInterval) {
  Graph g = TestNetwork(200, 7);
  MortonSpace space(g);
  std::vector<uint32_t> colors(g.NumVertices(), 3);
  std::vector<ColorInterval> intervals;
  std::vector<uint32_t> exceptions;
  CompressColors(space, colors, &intervals, &exceptions);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].color, 3u);
  EXPECT_TRUE(exceptions.empty());
}

TEST(CompressColors, LookupRecoversEveryColor) {
  Graph g = TestNetwork(500, 9);
  MortonSpace space(g);
  // Pseudo-random colouring: worst case for compression, but lookups must
  // still be exact.
  Rng rng(11);
  std::vector<uint32_t> colors(g.NumVertices());
  for (auto& c : colors) c = static_cast<uint32_t>(rng.NextBelow(4));
  std::vector<ColorInterval> intervals;
  std::vector<uint32_t> exceptions;
  CompressColors(space, colors, &intervals, &exceptions);
  for (size_t i = 0; i < g.NumVertices(); ++i) {
    bool is_exception = false;
    for (uint32_t e : exceptions) {
      if (e == i) is_exception = true;
    }
    if (is_exception) continue;
    EXPECT_EQ(LookupColor(intervals.data(),
                          intervals.data() + intervals.size(),
                          space.SortedCodes()[i]),
              colors[i])
        << "position " << i;
  }
}

TEST(CompressColors, SpatiallyCoherentColoringCompressesWell) {
  Graph g = TestNetwork(900, 13);
  MortonSpace space(g);
  // Colour by coordinate half-plane: two blocks of spatially contiguous
  // colour, so the quadtree should emit far fewer intervals than n.
  const Rect& b = g.Bounds();
  const int32_t mid_x = (b.min_x + b.max_x) / 2;
  std::vector<uint32_t> colors(g.NumVertices());
  for (size_t i = 0; i < g.NumVertices(); ++i) {
    colors[i] = g.Coord(space.SortedVertices()[i]).x < mid_x ? 0 : 1;
  }
  std::vector<ColorInterval> intervals;
  std::vector<uint32_t> exceptions;
  CompressColors(space, colors, &intervals, &exceptions);
  EXPECT_LT(intervals.size(), g.NumVertices() / 4);
}

class SilcCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SilcCorrectnessTest, MatchesDijkstraAcrossSeeds) {
  Graph g = TestNetwork(500, GetParam());
  SilcIndex silc(g);
  ExpectIndexCorrect(g, &silc, 150, GetParam() + 500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SilcCorrectnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SilcIndex, PaperFigure1FirstHops) {
  Graph g = PaperFigure1Graph();
  SilcIndex silc(g);
  // Figure 4: from v8 (id 7), shortest paths to v4, v5, v6, v7 (ids 3-6)
  // start with the hop to v6 (id 5); paths to v1 and v3 (ids 0, 2) start
  // with the hop to v1 (id 0).
  EXPECT_EQ(silc.NextHop(7, 3), 5u);
  EXPECT_EQ(silc.NextHop(7, 4), 5u);
  EXPECT_EQ(silc.NextHop(7, 5), 5u);
  EXPECT_EQ(silc.NextHop(7, 6), 5u);
  EXPECT_EQ(silc.NextHop(7, 0), 0u);
  EXPECT_EQ(silc.NextHop(7, 2), 0u);
}

TEST(SilcIndex, DistanceEqualsPathWeight) {
  Graph g = TestNetwork(400, 21);
  SilcIndex silc(g);
  const auto ctx = silc.NewContext();
  for (auto [s, t] : RandomPairs(g, 100, 3)) {
    Path p = silc.PathQuery(ctx.get(), s, t);
    if (p.empty()) {
      EXPECT_EQ(silc.DistanceQuery(ctx.get(), s, t), kInfDistance);
      continue;
    }
    EXPECT_EQ(silc.DistanceQuery(ctx.get(), s, t), PathWeight(g, p));
  }
}

TEST(SilcIndex, HandlesDuplicateCoordinates) {
  // Two vertices at the same point plus a few distinct ones: the quadtree
  // cannot separate the duplicates, so the exception path must kick in.
  GraphBuilder b(5);
  b.SetCoord(0, Point{0, 0});
  b.SetCoord(1, Point{100, 100});
  b.SetCoord(2, Point{100, 100});  // duplicate of vertex 1
  b.SetCoord(3, Point{200, 0});
  b.SetCoord(4, Point{300, 100});
  b.AddEdge(0, 1, 5);
  b.AddEdge(0, 2, 9);
  b.AddEdge(1, 3, 3);
  b.AddEdge(2, 4, 2);
  b.AddEdge(3, 4, 4);
  Graph g = std::move(b).Build();
  SilcIndex silc(g);
  ExpectIndexCorrect(g, &silc, 50, 1);
}

TEST(SilcIndex, IndexGrowsSubquadratically) {
  // O(n sqrt(n)) intervals: doubling n should far less than quadruple the
  // interval count.
  Graph g1 = TestNetwork(400, 31);
  Graph g2 = TestNetwork(1600, 31);
  SilcIndex s1(g1);
  SilcIndex s2(g2);
  const double growth = static_cast<double>(s2.NumIntervals()) /
                        static_cast<double>(s1.NumIntervals());
  const double n_growth = static_cast<double>(g2.NumVertices()) /
                          static_cast<double>(g1.NumVertices());
  EXPECT_LT(growth, n_growth * n_growth / 2);
}

}  // namespace
}  // namespace roadnet
