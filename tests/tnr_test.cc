#include "tnr/tnr_index.h"

#include <memory>

#include "ch/ch_index.h"
#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "tests/test_util.h"
#include "tnr/access_nodes.h"
#include "tnr/cell_grid.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(CellGrid, AssignsEveryVertexInRange) {
  Graph g = TestNetwork(500, 3);
  CellGrid grid(g, 16);
  size_t total = 0;
  for (uint32_t c : grid.NonEmptyCells()) total += grid.VerticesIn(c).size();
  EXPECT_EQ(total, g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    CellCoord c = grid.CellOf(v);
    EXPECT_GE(c.x, 0);
    EXPECT_GE(c.y, 0);
    EXPECT_LT(c.x, 16);
    EXPECT_LT(c.y, 16);
  }
}

TEST(CellGrid, ChebyshevMetric) {
  EXPECT_EQ(CellChebyshev({0, 0}, {3, -4}), 4);
  EXPECT_EQ(CellChebyshev({2, 2}, {2, 2}), 0);
  EXPECT_EQ(CellChebyshev({-1, 5}, {1, 5}), 2);
}

class TnrCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TnrCorrectnessTest, MatchesDijkstraAcrossSeeds) {
  Graph g = TestNetwork(900, GetParam());
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 16;
  TnrIndex tnr(g, &ch, config);
  ExpectIndexCorrect(g, &tnr, 150, GetParam() + 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TnrCorrectnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TnrIndex, CorrectWithBidirectionalFallback) {
  Graph g = TestNetwork(700, 9);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 16;
  config.fallback = TnrFallback::kBidirectionalDijkstra;
  TnrIndex tnr(g, &ch, config);
  ExpectIndexCorrect(g, &tnr, 120, 77);
}

TEST(TnrIndex, CorrectWithHybridGrid) {
  Graph g = TestNetwork(900, 12);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 8;
  config.hybrid = true;
  TnrIndex tnr(g, &ch, config);
  ExpectIndexCorrect(g, &tnr, 150, 33);
}

TEST(TnrIndex, CorrectWithLongEdges) {
  GeneratorConfig gc;
  gc.target_vertices = 900;
  gc.seed = 5;
  gc.highway_period = 8;
  gc.long_edge_probability = 0.02;
  Graph g = GenerateRoadNetwork(gc);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 16;
  TnrIndex tnr(g, &ch, config);
  ExpectIndexCorrect(g, &tnr, 150, 41);
}

TEST(TnrIndex, FarQueriesUseTheTable) {
  Graph g = TestNetwork(1600, 21);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 16;
  TnrIndex tnr(g, &ch, config);
  // Vertices on opposite corners of the network are many cells apart.
  VertexId far_a = 0, far_b = 0;
  int64_t best = -1;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : {VertexId{0}, VertexId{g.NumVertices() - 1}}) {
      int64_t d = LInfDistance(g.Coord(v), g.Coord(u));
      if (d > best) {
        best = d;
        far_a = v;
        far_b = u;
      }
    }
  }
  ASSERT_TRUE(tnr.TableApplicable(far_a, far_b));
  const auto ctx = tnr.NewContext();
  Dijkstra dij(g);
  EXPECT_EQ(tnr.DistanceQuery(ctx.get(), far_a, far_b),
            dij.Run(far_a, far_b));
  EXPECT_EQ(tnr.RoutingStats(ctx.get()).coarse_table_answered, 1u);
  EXPECT_EQ(tnr.RoutingStats(ctx.get()).fallback_answered, 0u);
}

TEST(TnrIndex, NearQueriesFallBack) {
  Graph g = TestNetwork(900, 23);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 8;
  TnrIndex tnr(g, &ch, config);
  const auto ctx = tnr.NewContext();
  // A vertex and its neighbour are in the same or adjacent cells.
  VertexId s = 0;
  VertexId t = g.Neighbors(0)[0].to;
  Dijkstra dij(g);
  EXPECT_EQ(tnr.DistanceQuery(ctx.get(), s, t), dij.Run(s, t));
  EXPECT_EQ(tnr.RoutingStats(ctx.get()).fallback_answered, 1u);
}

// --- Appendix B: the flawed access-node computation gives wrong answers.
//
// Reconstruction of Figure 12(b): a vertex v5 just inside the inner shell
// whose single long edge jumps beyond the outer shell to v6, v6 reachable
// ONLY through v5. The flawed enumeration never sees the jumping edge, so
// v5/v6 produce no access node and far queries toward v6 go wrong, while
// the corrected computation stays exact.
Graph AppendixBGraph(uint32_t* out_v1, uint32_t* out_v6) {
  // A 40x1 chain of vertices spaced one cell apart on a 40-cell-wide grid,
  // plus the jumping edge. Cells are made ~100 units wide by bounding
  // coordinates [0, 4000).
  GraphBuilder b(42);
  for (uint32_t i = 0; i < 40; ++i) {
    b.SetCoord(i, Point{static_cast<int32_t>(i * 100 + 50), 50});
    if (i > 0) b.AddEdge(i - 1, i, 100);
  }
  // v5-analogue: id 40, one cell to the right of vertex 0 (inside the
  // inner shell of vertex 0's cell).
  b.SetCoord(40, Point{150, 150});
  b.AddEdge(0, 40, 100);
  // v6-analogue: id 41, far beyond the outer shell (cell distance ~12),
  // connected ONLY via the long edge from 40.
  b.SetCoord(41, Point{1250, 150});
  b.AddEdge(40, 41, 1100);
  *out_v1 = 0;
  *out_v6 = 41;
  return std::move(b).Build();
}

TEST(TnrDefect, FlawedAccessNodesGiveWrongAnswers) {
  uint32_t v1 = 0, v6 = 0;
  Graph g = AppendixBGraph(&v1, &v6);
  ChIndex ch(g);
  Dijkstra dij(g);

  TnrConfig correct_config;
  correct_config.grid_resolution = 40;
  TnrIndex correct(g, &ch, correct_config);

  TnrConfig flawed_config = correct_config;
  flawed_config.flawed_access_nodes = true;
  TnrIndex flawed(g, &ch, flawed_config);

  // The query must be far enough for the table to apply on both variants.
  ASSERT_TRUE(correct.TableApplicable(v1, v6));
  const Distance truth = dij.Run(v1, v6);
  EXPECT_EQ(correct.DistanceQuery(correct.NewContext().get(), v1, v6), truth)
      << "corrected TNR must be exact";
  EXPECT_NE(flawed.DistanceQuery(flawed.NewContext().get(), v1, v6), truth)
      << "the Appendix-B defect should manifest on the jumping edge";
}

TEST(TnrDefect, CorrectVariantExactOnLongEdgeNetworks) {
  GeneratorConfig gc;
  gc.target_vertices = 1600;
  gc.seed = 77;
  gc.highway_period = 8;
  gc.long_edge_probability = 0.03;
  gc.long_edge_span = 7;
  Graph g = GenerateRoadNetwork(gc);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 24;
  TnrIndex tnr(g, &ch, config);
  ExpectIndexCorrect(g, &tnr, 200, 91);
}

}  // namespace
}  // namespace roadnet
