// Deeper white-box-ish tests of algorithm internals through their public
// seams: witness-search truncation, upward search spaces, SILC first-hop
// algebra, TNR query routing counters, and generator structure.

#include <algorithm>

#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "silc/silc_index.h"
#include "tests/test_util.h"
#include "tnr/tnr_index.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// --- Contraction internals ---

TEST(ContractionInternals, TruncatedWitnessSearchStaysExact) {
  // A settle limit of 1 cripples witness searches, forcing many redundant
  // shortcuts — queries must stay exact regardless.
  Graph g = TestNetwork(500, 3);
  ChConfig crippled;
  crippled.witness_settle_limit = 1;
  ChConfig generous;
  generous.witness_settle_limit = 2000;
  ChIndex ch_crippled(g, crippled);
  ChIndex ch_generous(g, generous);
  EXPECT_GE(ch_crippled.NumShortcuts(), ch_generous.NumShortcuts());
  ExpectIndexCorrect(g, &ch_crippled, 100, 5);
}

TEST(ContractionInternals, StarGraphShortcutCount) {
  // A star with k leaves: contracting the centre first must connect every
  // leaf pair, C(k,2) shortcuts, since no witness path exists.
  const uint32_t k = 6;
  GraphBuilder b(k + 1);
  b.SetCoord(0, Point{0, 0});
  for (uint32_t i = 1; i <= k; ++i) {
    b.SetCoord(i, Point{static_cast<int32_t>(i * 100), 100});
    b.AddEdge(0, i, 10 + i);  // distinct weights: no witness ties
  }
  Graph g = std::move(b).Build();
  // Degree ordering contracts leaves first... the centre has max degree,
  // so with kDegree the centre goes last and NO shortcut is needed (each
  // leaf has a single neighbour). Check both orderings' invariants.
  ChConfig by_degree;
  by_degree.heuristic = OrderingHeuristic::kDegree;
  ChIndex ch(g, by_degree);
  EXPECT_EQ(ch.NumShortcuts(), 0u);
  const auto ctx = ch.NewContext();
  Dijkstra dij(g);
  for (VertexId s = 0; s <= k; ++s) {
    for (VertexId t = 0; t <= k; ++t) {
      EXPECT_EQ(ch.DistanceQuery(ctx.get(), s, t), dij.Run(s, t));
    }
  }
}

TEST(ContractionInternals, ShortcutWeightsAreValidUpperBounds) {
  // With the default (truncated) witness search a shortcut's weight is an
  // upper bound on the true distance — never below it (that would break
  // queries).
  Graph g = TestNetwork(700, 11);
  ContractionResult result = ContractGraph(g, ChConfig{});
  Dijkstra dij(g);
  size_t checked = 0;
  for (const TaggedEdge& e : result.edges) {
    if (e.middle == kInvalidVertex) continue;
    if (++checked > 150) break;  // sample
    EXPECT_GE(e.weight, dij.Run(e.u, e.v))
        << "shortcut (" << e.u << "," << e.v << ") via " << e.middle;
  }
  EXPECT_GT(checked, 10u);
}

TEST(ContractionInternals, ShortcutWeightIsARealPathLength) {
  // Every shortcut's weight is realizable by an actual path in G between
  // its endpoints (the recursively unpacked one), which together with the
  // upper-bound property makes redundant shortcuts harmless. Validated
  // end-to-end: unpacked CH paths match their reported distances, on a
  // graph contracted with a crippled witness search (max redundancy).
  Graph g = TestNetwork(700, 11);
  ChConfig config;
  config.witness_settle_limit = 1;
  ChIndex ch(g, config);
  const auto ctx = ch.NewContext();
  for (auto [s, t] : RandomPairs(g, 80, 9)) {
    const Distance d = ch.DistanceQuery(ctx.get(), s, t);
    Path p = ch.PathQuery(ctx.get(), s, t);
    if (d == kInfDistance) {
      EXPECT_TRUE(p.empty());
      continue;
    }
    EXPECT_EQ(PathWeight(g, p), d);
  }
}

TEST(ContractionInternals, MiddleVertexHasLowerRank) {
  Graph g = TestNetwork(500, 13);
  ChConfig config;
  ContractionResult result = ContractGraph(g, config);
  for (const TaggedEdge& e : result.edges) {
    if (e.middle == kInvalidVertex) continue;
    EXPECT_LT(result.rank[e.middle], result.rank[e.u]);
    EXPECT_LT(result.rank[e.middle], result.rank[e.v]);
  }
}

// --- CH upward search space ---

TEST(ChInternals, UpwardSearchSpaceDistancesAreUpperBounds) {
  Graph g = TestNetwork(400, 7);
  ChIndex ch(g);
  Dijkstra dij(g);
  const VertexId s = 17;
  dij.RunAll(s);
  std::vector<std::pair<VertexId, Distance>> space;
  ch.UpwardSearchSpace(ch.NewContext().get(), s, &space);
  ASSERT_FALSE(space.empty());
  bool has_self = false;
  for (const auto& [v, d] : space) {
    EXPECT_GE(d, dij.DistanceTo(v)) << "v=" << v;
    if (v == s) {
      has_self = true;
      EXPECT_EQ(d, 0u);
    }
  }
  EXPECT_TRUE(has_self);
}

TEST(ChInternals, MeetingVertexRecoversTrueDistance) {
  // min over doubly-reached vertices of df + db equals the true distance
  // (the invariant the many-to-many engine builds on).
  Graph g = TestNetwork(400, 9);
  ChIndex ch(g);
  const auto ctx = ch.NewContext();
  Dijkstra dij(g);
  std::vector<std::pair<VertexId, Distance>> fs, bs;
  for (auto [s, t] : RandomPairs(g, 40, 11)) {
    ch.UpwardSearchSpace(ctx.get(), s, &fs);
    ch.UpwardSearchSpace(ctx.get(), t, &bs);
    std::vector<Distance> db(g.NumVertices(), kInfDistance);
    for (const auto& [v, d] : bs) db[v] = d;
    Distance best = kInfDistance;
    for (const auto& [v, d] : fs) {
      if (db[v] != kInfDistance) best = std::min(best, d + db[v]);
    }
    EXPECT_EQ(best, dij.Run(s, t)) << "s=" << s << " t=" << t;
  }
}

// --- SILC first-hop algebra ---

TEST(SilcInternals, FirstHopDecomposesDistance) {
  // dist(s, t) == w(s, hop) + dist(hop, t) for the hop SILC reports.
  Graph g = TestNetwork(400, 15);
  SilcIndex silc(g);
  Dijkstra dij(g);
  for (auto [s, t] : RandomPairs(g, 80, 3)) {
    if (s == t) continue;
    const VertexId hop = silc.NextHop(s, t);
    const Distance d = dij.Run(s, t);
    if (d == kInfDistance) {
      EXPECT_EQ(hop, kInvalidVertex);
      continue;
    }
    ASSERT_NE(hop, kInvalidVertex);
    const auto w = g.EdgeWeight(s, hop);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(*w + dij.Run(hop, t), d) << "s=" << s << " t=" << t;
  }
}

// --- TNR routing counters ---

TEST(TnrInternals, StatsPartitionAllDistanceQueries) {
  Graph g = TestNetwork(900, 17);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 16;
  config.hybrid = true;
  TnrIndex tnr(g, &ch, config);
  const auto ctx = tnr.NewContext();
  const auto pairs = RandomPairs(g, 200, 5);
  size_t non_trivial = 0;
  for (auto [s, t] : pairs) {
    tnr.DistanceQuery(ctx.get(), s, t);
    if (s != t) ++non_trivial;  // s == t short-circuits before routing
  }
  const TnrStats st = tnr.RoutingStats(ctx.get());
  EXPECT_EQ(st.coarse_table_answered + st.fine_table_answered +
                st.fallback_answered,
            non_trivial);
}

TEST(TnrInternals, LocalityFilterIsSymmetric) {
  Graph g = TestNetwork(700, 19);
  ChIndex ch(g);
  TnrConfig config;
  config.grid_resolution = 16;
  TnrIndex tnr(g, &ch, config);
  for (auto [s, t] : RandomPairs(g, 100, 7)) {
    EXPECT_EQ(tnr.TableApplicable(s, t), tnr.TableApplicable(t, s));
  }
}

// --- Generator structure ---

TEST(GeneratorInternals, CityBandsCreateNearPairs) {
  // With density bands, some vertex pairs sit far closer together than
  // the rural pitch — the property that populates the paper's Q1 bucket.
  GeneratorConfig config;
  config.target_vertices = 2500;
  config.seed = 5;
  Graph g = GenerateRoadNetwork(config);
  int64_t min_edge_linf = INT64_MAX;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      min_edge_linf =
          std::min(min_edge_linf, LInfDistance(g.Coord(v), g.Coord(a.to)));
    }
  }
  EXPECT_LT(min_edge_linf, config.pitch / 8);
}

TEST(GeneratorInternals, UniformModeHasNoNearPairs) {
  GeneratorConfig config;
  config.target_vertices = 2500;
  config.seed = 5;
  config.city_density_factor = 1;
  Graph g = GenerateRoadNetwork(config);
  int64_t min_edge_linf = INT64_MAX;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      min_edge_linf =
          std::min(min_edge_linf, LInfDistance(g.Coord(v), g.Coord(a.to)));
    }
  }
  EXPECT_GT(min_edge_linf, config.pitch / 8);
}

TEST(GeneratorInternals, LongEdgesOnlyWhenConfigured) {
  GeneratorConfig off;
  off.target_vertices = 900;
  off.seed = 3;
  GeneratorConfig on = off;
  on.long_edge_probability = 0.05;
  on.long_edge_span = 8;
  Graph g_off = GenerateRoadNetwork(off);
  Graph g_on = GenerateRoadNetwork(on);
  auto longest_edge = [](const Graph& g) {
    int64_t best = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (const Arc& a : g.Neighbors(v)) {
        best = std::max(best, SquaredEuclidean(g.Coord(v), g.Coord(a.to)));
      }
    }
    return best;
  };
  EXPECT_GT(longest_edge(g_on), longest_edge(g_off) * 4);
}

}  // namespace
}  // namespace roadnet
