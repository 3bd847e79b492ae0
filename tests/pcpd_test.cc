#include "pcpd/pcpd_index.h"

#include <cmath>

#include "dijkstra/dijkstra.h"
#include "pcpd/redundancy.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(PcpdIndex, PaperFigure1AllPairs) {
  Graph g = PaperFigure1Graph();
  PcpdIndex pcpd(g);
  const auto ctx = pcpd.NewContext();
  Dijkstra dij(g);
  for (VertexId s = 0; s < 8; ++s) {
    for (VertexId t = 0; t < 8; ++t) {
      EXPECT_EQ(pcpd.DistanceQuery(ctx.get(), s, t), dij.Run(s, t))
          << "s=" << s << " t=" << t;
      Path p = pcpd.PathQuery(ctx.get(), s, t);
      ASSERT_FALSE(p.empty());
      EXPECT_TRUE(IsValidPath(g, p));
      EXPECT_EQ(PathWeight(g, p), dij.Run(s, t));
    }
  }
}

class PcpdCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PcpdCorrectnessTest, MatchesDijkstraAcrossSeeds) {
  Graph g = TestNetwork(350, GetParam());
  PcpdIndex pcpd(g);
  ExpectIndexCorrect(g, &pcpd, 120, GetParam() + 900);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcpdCorrectnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(PcpdIndex, HandlesDuplicateCoordinates) {
  GraphBuilder b(6);
  b.SetCoord(0, Point{0, 0});
  b.SetCoord(1, Point{100, 100});
  b.SetCoord(2, Point{100, 100});  // duplicate
  b.SetCoord(3, Point{100, 100});  // triplicate
  b.SetCoord(4, Point{300, 100});
  b.SetCoord(5, Point{400, 0});
  b.AddEdge(0, 1, 5);
  b.AddEdge(0, 2, 9);
  b.AddEdge(1, 3, 3);
  b.AddEdge(2, 4, 2);
  b.AddEdge(3, 4, 4);
  b.AddEdge(4, 5, 1);
  Graph g = std::move(b).Build();
  PcpdIndex pcpd(g);
  ExpectIndexCorrect(g, &pcpd, 60, 2);
}

TEST(PcpdIndex, CoversEveryVertexPair) {
  Graph g = TestNetwork(150, 17);
  PcpdIndex pcpd(g);
  const auto ctx = pcpd.NewContext();
  Dijkstra dij(g);
  // Exhaustive all-pairs check on a small network: the decomposition must
  // cover every pair with a usable chain.
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    dij.RunAll(s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      EXPECT_EQ(pcpd.DistanceQuery(ctx.get(), s, t), dij.DistanceTo(t))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(PcpdIndex, StoresMorePairsThanVertices) {
  // Appendix C: real (and realistic synthetic) networks are nearly
  // non-redundant, so |Spcp| greatly exceeds the idealized O(n).
  Graph g = TestNetwork(400, 23);
  PcpdIndex pcpd(g);
  EXPECT_GT(pcpd.NumPairs(), g.NumVertices());
}

TEST(RedundancyMeter, RatioIsAtLeastOne) {
  Graph g = TestNetwork(400, 3);
  RedundancyMeter meter(g);
  for (auto [s, t] : RandomPairs(g, 100, 5)) {
    if (s == t) continue;
    const double r = meter.Ratio(s, t);
    EXPECT_GE(r, 1.0) << "s=" << s << " t=" << t;
  }
}

TEST(RedundancyMeter, DetectsForcedBottleneck) {
  // A graph where s-t has exactly one interior route: no core-disjoint
  // path exists and the ratio is infinite.
  GraphBuilder b(4);
  b.SetCoord(0, Point{0, 0});
  b.SetCoord(1, Point{100, 0});
  b.SetCoord(2, Point{200, 0});
  b.SetCoord(3, Point{300, 0});
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  RedundancyMeter meter(g);
  EXPECT_TRUE(std::isinf(meter.Ratio(0, 3)));
}

TEST(RedundancyMeter, FindsParallelRoute) {
  // Two disjoint routes 0 -> 3: direct (length 10) and detour (length 12):
  // ratio 1.2.
  GraphBuilder b(4);
  b.SetCoord(0, Point{0, 0});
  b.SetCoord(1, Point{100, 0});
  b.SetCoord(2, Point{100, 100});
  b.SetCoord(3, Point{200, 0});
  b.AddEdge(0, 1, 5);
  b.AddEdge(1, 3, 5);
  b.AddEdge(0, 2, 6);
  b.AddEdge(2, 3, 6);
  Graph g = std::move(b).Build();
  RedundancyMeter meter(g);
  EXPECT_DOUBLE_EQ(meter.Ratio(0, 3), 1.2);
}

}  // namespace
}  // namespace roadnet
