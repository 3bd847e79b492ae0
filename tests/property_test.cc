// Property-based sweeps: the correctness invariants must hold across
// structurally different networks (uniform vs city-banded, with/without
// highways, with/without bridges, sparse vs dense), not just the default
// generator configuration.

#include <memory>
#include <string>

#include "alt/alt_index.h"
#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "graph/connectivity.h"
#include "graph/generator.h"
#include "tests/test_util.h"
#include "tnr/tnr_index.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

struct NetworkShape {
  std::string name;
  GeneratorConfig config;
};

std::vector<NetworkShape> Shapes() {
  std::vector<NetworkShape> shapes;
  {
    NetworkShape s;
    s.name = "default";
    s.config.target_vertices = 700;
    shapes.push_back(s);
  }
  {
    NetworkShape s;
    s.name = "uniform_no_cities";
    s.config.target_vertices = 700;
    s.config.city_density_factor = 1;
    shapes.push_back(s);
  }
  {
    NetworkShape s;
    s.name = "no_highways";
    s.config.target_vertices = 700;
    s.config.highway_period = 0;
    shapes.push_back(s);
  }
  {
    NetworkShape s;
    s.name = "bridges";
    s.config.target_vertices = 700;
    s.config.long_edge_probability = 0.05;
    s.config.long_edge_span = 9;
    shapes.push_back(s);
  }
  {
    NetworkShape s;
    s.name = "sparse";
    s.config.target_vertices = 700;
    s.config.edge_keep_probability = 0.75;
    shapes.push_back(s);
  }
  {
    NetworkShape s;
    s.name = "dense_diagonals";
    s.config.target_vertices = 700;
    s.config.diagonal_probability = 0.5;
    shapes.push_back(s);
  }
  for (auto& s : shapes) s.config.seed = 99;
  return shapes;
}

class ShapeSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShapeSweepTest, GeneratorInvariants) {
  const NetworkShape shape = Shapes()[GetParam()];
  Graph g = GenerateRoadNetwork(shape.config);
  SCOPED_TRACE(shape.name);
  ASSERT_GT(g.NumVertices(), 100u);
  EXPECT_TRUE(IsConnected(g));
  // Positive weights, symmetric adjacency.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      EXPECT_GT(a.weight, 0u);
      EXPECT_EQ(g.EdgeWeight(a.to, v), std::optional<Weight>(a.weight));
    }
  }
}

TEST_P(ShapeSweepTest, ChExactOnEveryShape) {
  const NetworkShape shape = Shapes()[GetParam()];
  Graph g = GenerateRoadNetwork(shape.config);
  SCOPED_TRACE(shape.name);
  ChIndex ch(g);
  ExpectIndexCorrect(g, &ch, 120, 1000 + GetParam());
}

TEST_P(ShapeSweepTest, TnrExactOnEveryShape) {
  const NetworkShape shape = Shapes()[GetParam()];
  Graph g = GenerateRoadNetwork(shape.config);
  SCOPED_TRACE(shape.name);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 12;
  TnrIndex tnr(g, &ch, config);
  ExpectIndexCorrect(g, &tnr, 120, 2000 + GetParam());
}

TEST_P(ShapeSweepTest, AltExactOnEveryShape) {
  const NetworkShape shape = Shapes()[GetParam()];
  Graph g = GenerateRoadNetwork(shape.config);
  SCOPED_TRACE(shape.name);
  AltIndex alt(g);
  ExpectIndexCorrect(g, &alt, 120, 3000 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweepTest,
                         ::testing::Range<size_t>(0, Shapes().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return Shapes()[info.param].name;
                         });

// Sub-path optimality: every prefix of a shortest path is itself a
// shortest path — checked through the CH index since it exercises
// unpacking on every prefix endpoint.
TEST(PathProperties, PrefixesAreShortest) {
  Graph g = TestNetwork(500, 77);
  ChIndex ch(g);
  const auto ctx = ch.NewContext();
  Dijkstra dij(g);
  for (auto [s, t] : RandomPairs(g, 25, 5)) {
    Path p = ch.PathQuery(ctx.get(), s, t);
    if (p.size() < 3) continue;
    dij.RunAll(s);
    Distance along = 0;
    for (size_t i = 0; i + 1 < p.size(); ++i) {
      along += *g.EdgeWeight(p[i], p[i + 1]);
      EXPECT_EQ(along, dij.DistanceTo(p[i + 1]))
          << "prefix to " << p[i + 1];
    }
  }
}

// Symmetry: on an undirected graph, dist(s, t) == dist(t, s) through
// every technique.
TEST(PathProperties, DistanceIsSymmetric) {
  Graph g = TestNetwork(500, 31);
  ChIndex ch(g);
  BidirectionalDijkstra bidi(g);
  AltIndex alt(g);
  const auto ch_ctx = ch.NewContext();
  const auto bidi_ctx = bidi.NewContext();
  const auto alt_ctx = alt.NewContext();
  for (auto [s, t] : RandomPairs(g, 50, 7)) {
    EXPECT_EQ(ch.DistanceQuery(ch_ctx.get(), s, t),
              ch.DistanceQuery(ch_ctx.get(), t, s));
    EXPECT_EQ(bidi.DistanceQuery(bidi_ctx.get(), s, t),
              bidi.DistanceQuery(bidi_ctx.get(), t, s));
    EXPECT_EQ(alt.DistanceQuery(alt_ctx.get(), s, t),
              alt.DistanceQuery(alt_ctx.get(), t, s));
  }
}

// Triangle inequality of the shortest-path metric via CH.
TEST(PathProperties, TriangleInequality) {
  Graph g = TestNetwork(400, 41);
  ChIndex ch(g);
  const auto ctx = ch.NewContext();
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    const VertexId a = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    const VertexId b = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    const VertexId c = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    const Distance ab = ch.DistanceQuery(ctx.get(), a, b);
    const Distance bc = ch.DistanceQuery(ctx.get(), b, c);
    const Distance ac = ch.DistanceQuery(ctx.get(), a, c);
    if (ab == kInfDistance || bc == kInfDistance) continue;
    EXPECT_LE(ac, ab + bc);
  }
}

}  // namespace
}  // namespace roadnet
