#include "ch/ch_index.h"

#include <memory>

#include "ch/contraction.h"
#include "ch/many_to_many.h"
#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// FNV-1a over the contraction's whole output: every rank, then every
// deduplicated edge as (u, v, weight, middle).
uint64_t Fingerprint(const ContractionResult& result) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(result.rank.size());
  for (uint32_t r : result.rank) mix(r);
  mix(result.edges.size());
  for (const TaggedEdge& e : result.edges) {
    mix(e.u);
    mix(e.v);
    mix(e.weight);
    mix(e.middle);
  }
  return h;
}

struct PinnedContraction {
  const char* dataset;
  OrderingHeuristic heuristic;
  uint32_t witness_settle_limit;
  size_t num_edges;
  uint64_t fingerprint;
};

void ExpectPinned(const std::vector<PinnedContraction>& cases) {
  for (const PinnedContraction& c : cases) {
    const DatasetSpec* spec = nullptr;
    for (const DatasetSpec& s : PaperDatasets()) {
      if (s.name == c.dataset) spec = &s;
    }
    ASSERT_NE(spec, nullptr) << c.dataset;
    ChConfig config;
    config.heuristic = c.heuristic;
    config.witness_settle_limit = c.witness_settle_limit;
    const ContractionResult result =
        ContractGraph(BuildDataset(*spec), config);
    SCOPED_TRACE(::testing::Message()
                 << c.dataset << " heuristic "
                 << static_cast<int>(c.heuristic) << " settle limit "
                 << c.witness_settle_limit);
    EXPECT_EQ(result.edges.size(), c.num_edges);
    EXPECT_EQ(Fingerprint(result), c.fingerprint);
  }
}

// The contraction's output (order and edge set) is pinned bit for bit:
// every hierarchy, label, bucket and query count built on it depends on
// it, so a witness-search or scheduling change must reproduce it exactly.
TEST(Contraction, OutputIsPinnedUnderEveryHeuristic) {
  using H = OrderingHeuristic;
  ExpectPinned({
      {"DE'", H::kEdgeDifferenceDeleted, 500,
       1679, 9352434083924109261ull},
      {"DE'", H::kEdgeDifference, 500,
       1774, 13909669484285261526ull},
      {"DE'", H::kDegree, 500,
       1926, 6089533898825939578ull},
      {"DE'", H::kRandom, 500,
       3108, 4652470344195228407ull},
      {"NH'", H::kEdgeDifferenceDeleted, 500,
       3908, 327373656007836874ull},
      {"NH'", H::kEdgeDifference, 500,
       4144, 14974863892190737960ull},
      {"NH'", H::kDegree, 500,
       4644, 13044260519879293405ull},
      {"NH'", H::kRandom, 500,
       7700, 1708049438821882330ull},
      {"ME'", H::kEdgeDifferenceDeleted, 500,
       6608, 18290367095025671675ull},
      {"ME'", H::kEdgeDifference, 500,
       7133, 3963124730111954989ull},
      {"ME'", H::kDegree, 500,
       7822, 9023797463133043935ull},
      {"ME'", H::kRandom, 500,
       15241, 14109328269711682639ull},
      {"CO'", H::kEdgeDifferenceDeleted, 500,
       15752, 10988008288117392703ull},
      {"CO'", H::kEdgeDifference, 500,
       16771, 13468910197529738307ull},
      {"CO'", H::kDegree, 500,
       19266, 12575956228317730017ull},
  });
}

// A settle limit truncates witness searches, the one place where a search
// that pops in a different order would decide a pair differently.
TEST(Contraction, OutputIsPinnedUnderTruncatedWitnessSearches) {
  using H = OrderingHeuristic;
  ExpectPinned({
      {"CO'", H::kEdgeDifferenceDeleted, 1,
       51415, 17010921148058658387ull},
      {"CO'", H::kEdgeDifferenceDeleted, 8,
       27247, 8141144494361166087ull},
  });
}

// CA' is the dataset the served benchmark builds its hub labels on.
TEST(Contraction, OutputIsPinnedOnTheServedDataset) {
  ExpectPinned({
      {"CA'", OrderingHeuristic::kEdgeDifferenceDeleted, 500,
       67433, 8464500132661564448ull},
  });
}

// A hub joined to every vertex of a 300-vertex ring. Every witness search
// from a hub neighbour has the other 299 as targets and walks far along
// the ring, so one search holds far more vertices than the small ones of
// a road network.
Graph HubAndRing() {
  constexpr uint32_t kRing = 300;
  GraphBuilder b(kRing + 1);
  for (VertexId i = 0; i < kRing; ++i) {
    b.AddEdge(i, (i + 1) % kRing, 1 + (i * 7) % 5);
    b.AddEdge(i, kRing, 40 + (i * 37) % 50);
  }
  return std::move(b).Build();
}

TEST(Contraction, OutputIsPinnedWhenOneWitnessSearchHoldsManyVertices) {
  const ContractionResult result = ContractGraph(HubAndRing(), ChConfig{});
  EXPECT_EQ(result.edges.size(), 884u);
  EXPECT_EQ(Fingerprint(result), 3793629254354688363ull);
}

TEST(ChIndex, HubAndRingMatchesDijkstraOnAllPairs) {
  const Graph g = HubAndRing();
  const ChIndex ch(g);
  const auto ctx = ch.NewContext();
  Dijkstra reference(g);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    reference.RunAll(s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      const Distance truth = reference.DistanceTo(t);
      ASSERT_EQ(ch.DistanceQuery(ctx.get(), s, t), truth) << s << "-" << t;
      const Path path = ch.PathQuery(ctx.get(), s, t);
      ASSERT_EQ(ctx->path_distance, truth) << s << "-" << t;
      ASSERT_TRUE(IsValidPath(g, path)) << s << "-" << t;
      ASSERT_EQ(PathWeight(g, path), truth) << s << "-" << t;
    }
  }
}

// Contracting vertex 1 joins 0 and 2 by a shortcut of 6e9, past what a
// 32-bit weight holds. Truncated, it would make dist(3, 5) read
// 1,705,032,706 instead of 6,000,000,002.
TEST(ContractionDeathTest, ShortcutBeyondWeightLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GraphBuilder b(7);
  b.AddEdge(0, 1, 3000000000u);
  b.AddEdge(1, 2, 3000000000u);
  b.AddEdge(0, 3, 1);
  b.AddEdge(0, 4, 1);
  b.AddEdge(2, 5, 1);
  b.AddEdge(2, 6, 1);
  const Graph g = std::move(b).Build();
  EXPECT_DEATH(ContractGraph(g, ChConfig{}), "32-bit shortcut-weight limit");
}

// A vertex of degree d can need d(d - 1)/2 shortcuts. At 100,000
// neighbours that is an edge difference of 4,999,850,000, past what 32
// bits hold, and the priority must keep it.
TEST(CombinePriority, EdgeDifferencePastTwoTo31KeepsItsValue) {
  constexpr int64_t kDegree = 100000;
  PriorityTerms terms;
  terms.edge_difference = kDegree * (kDegree - 1) / 2 - kDegree;
  terms.deleted_neighbours = 3;
  terms.degree = static_cast<int32_t>(kDegree);
  ASSERT_GT(terms.edge_difference, int64_t{1} << 31);
  EXPECT_EQ(CombinePriority(OrderingHeuristic::kEdgeDifferenceDeleted, terms),
            2 * int64_t{4999850000} + 3);
  EXPECT_EQ(CombinePriority(OrderingHeuristic::kEdgeDifference, terms),
            int64_t{4999850000});
}

TEST(Contraction, PaperFigure1ProducesValidShortcuts) {
  Graph g = PaperFigure1Graph();
  ChConfig config;
  ContractionResult result = ContractGraph(g, config);
  ASSERT_EQ(result.rank.size(), 8u);
  // All ranks distinct.
  std::vector<bool> seen(8, false);
  for (uint32_t r : result.rank) {
    ASSERT_LT(r, 8u);
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
  // Every shortcut's weight equals the true distance between its endpoints
  // (Section 3.2: w(c) = dist(vj, vk)).
  Dijkstra dij(g);
  for (const TaggedEdge& e : result.edges) {
    if (e.middle == kInvalidVertex) continue;
    EXPECT_EQ(dij.Run(e.u, e.v), e.weight)
        << "shortcut (" << e.u << "," << e.v << ")";
  }
}

TEST(ChIndex, PaperFigure1Distances) {
  Graph g = PaperFigure1Graph();
  ChIndex ch(g);
  const auto ctx = ch.NewContext();
  // The paper's walkthrough: the CH query for (v3, v7) meets at v8 and
  // returns dist = 6 (v3-v1-v8 = 2 plus v8-v6-v5-v7 = 4).
  EXPECT_EQ(ch.DistanceQuery(ctx.get(), 2, 6), 6u);
  Dijkstra dij(g);
  for (VertexId s = 0; s < 8; ++s) {
    for (VertexId t = 0; t < 8; ++t) {
      EXPECT_EQ(ch.DistanceQuery(ctx.get(), s, t), dij.Run(s, t))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(ChIndex, CorrectOnSyntheticNetworks) {
  Graph g = TestNetwork(600, 7);
  ChIndex ch(g);
  ExpectIndexCorrect(g, &ch, 200, 11);
}

TEST(ChIndex, CorrectWithoutStallOnDemand) {
  Graph g = TestNetwork(600, 7);
  ChConfig config;
  config.stall_on_demand = false;
  ChIndex ch(g, config);
  EXPECT_FALSE(ch.StallOnDemand());
  ExpectIndexCorrect(g, &ch, 200, 13);
}

TEST(ChIndex, SelfQuery) {
  Graph g = TestNetwork(200, 3);
  ChIndex ch(g);
  const auto ctx = ch.NewContext();
  EXPECT_EQ(ch.DistanceQuery(ctx.get(), 5, 5), 0u);
  Path p = ch.PathQuery(ctx.get(), 5, 5);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 5u);
}

TEST(ChIndex, AllOrderingHeuristicsAreCorrect) {
  Graph g = TestNetwork(400, 21);
  for (OrderingHeuristic h :
       {OrderingHeuristic::kEdgeDifferenceDeleted,
        OrderingHeuristic::kEdgeDifference, OrderingHeuristic::kDegree,
        OrderingHeuristic::kRandom}) {
    ChConfig config;
    config.heuristic = h;
    ChIndex ch(g, config);
    ExpectIndexCorrect(g, &ch, 100, 17);
  }
}

TEST(ChIndex, GoodOrderingBeatsRandomOnShortcuts) {
  Graph g = TestNetwork(1200, 5);
  ChConfig good;
  ChConfig bad;
  bad.heuristic = OrderingHeuristic::kRandom;
  ChIndex ch_good(g, good);
  ChIndex ch_bad(g, bad);
  // The paper notes an inferior ordering can produce drastically more
  // shortcuts; edge-difference ordering must do no worse than random.
  EXPECT_LE(ch_good.NumShortcuts(), ch_bad.NumShortcuts());
}

TEST(ManyToMany, MatchesPairwiseDijkstra) {
  Graph g = TestNetwork(300, 9);
  ChIndex ch(g);
  Rng rng(42);
  std::vector<VertexId> sources, targets;
  for (int i = 0; i < 12; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
    targets.push_back(static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
  }
  std::vector<Distance> table = ManyToManyDistances(&ch, sources, targets);
  Dijkstra dij(g);
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(table[i * targets.size() + j],
                dij.Run(sources[i], targets[j]))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(ManyToMany, EmptyInputs) {
  Graph g = TestNetwork(100, 1);
  ChIndex ch(g);
  EXPECT_TRUE(ManyToManyDistances(&ch, {}, {1, 2}).empty());
  EXPECT_TRUE(ManyToManyDistances(&ch, {1}, {}).empty());
}

}  // namespace
}  // namespace roadnet
