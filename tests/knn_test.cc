#include "routing/knn.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/dijkstra.h"
#include "knn/ier.h"
#include "knn/knn_index.h"
#include "poi/poi_set.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

std::vector<VertexId> RandomPois(const Graph& g, size_t count,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> pois;
  for (size_t i = 0; i < count; ++i) {
    pois.push_back(static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
  }
  return pois;
}

// Brute force: every POI's exact distance from one full Dijkstra, sorted
// by (distance, vertex id), without duplicates or unreachable POIs, cut
// to k.
std::vector<KnnResult> BruteForceKnn(const Graph& g,
                                     const std::vector<VertexId>& pois,
                                     VertexId q, size_t k) {
  Dijkstra dij(g);
  dij.RunAll(q);
  std::vector<KnnResult> all;
  for (VertexId p : pois) {
    if (dij.DistanceTo(p) != kInfDistance) {
      all.push_back(KnnResult{p, dij.DistanceTo(p)});
    }
  }
  std::sort(all.begin(), all.end(), [](const KnnResult& a, const KnnResult& b) {
    return std::tie(a.dist, a.poi) < std::tie(b.dist, b.poi);
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(Knn, MatchesBruteForce) {
  Graph g = TestNetwork(900, 3);
  const auto pois = RandomPois(g, 30, 5);
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    const VertexId q = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    for (size_t k : {size_t{1}, size_t{5}, size_t{30}}) {
      EXPECT_EQ(KnnByDijkstra(g, pois, q, k), BruteForceKnn(g, pois, q, k))
          << "q=" << q << " k=" << k;
    }
  }
}

// The index-free oracle and the two index-backed strategies (bucket-CH
// and IER over CH) return the same lists, so the same distances.
TEST(Knn, StrategiesAgreeOnDistances) {
  Graph g = TestNetwork(900, 3);
  ChIndex ch(g);
  PoiConfig config;
  config.categories = {{"poi", 30.0 / g.NumVertices()}};
  config.seed = 5;
  const PoiSet pois = PoiSet::Generate(g, config);
  const auto span = pois.Vertices(0);
  const std::vector<VertexId> poi_vec(span.begin(), span.end());
  ASSERT_FALSE(poi_vec.empty());

  KnnBucketIndex bucket(ch, pois);
  IerKnnIndex ier(g, ch, pois);
  KnnBucketIndex::Context bucket_ctx = bucket.NewContext();
  IerKnnIndex::Context ier_ctx = ier.NewContext();
  std::vector<KnnResult> from_bucket, from_ier;
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    const VertexId q = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    for (size_t k : {size_t{1}, size_t{5}, size_t{30}}) {
      const auto oracle = KnnByDijkstra(g, poi_vec, q, k);
      bucket.KnnQuery(&bucket_ctx, 0, q, k, &from_bucket);
      ier.KnnQuery(&ier_ctx, 0, q, k, &from_ier);
      EXPECT_EQ(from_bucket, oracle) << "q=" << q << " k=" << k;
      EXPECT_EQ(from_ier, oracle) << "q=" << q << " k=" << k;
    }
  }
}

// POIs 3 and 4 tie at distance 5 from vertex 0, one queued before the
// other; `larger_first` queues 4 first.
Graph TieGraph(bool larger_first) {
  const VertexId first = larger_first ? 4 : 3;
  const VertexId second = larger_first ? 3 : 4;
  GraphBuilder b(5);
  for (VertexId v = 0; v < 5; ++v) {
    b.SetCoord(v, Point{static_cast<int32_t>(v) * 100, 0});
  }
  b.AddEdge(0, 1, 1);       // a POI at distance 1
  b.AddEdge(0, 2, 2);       // a relay that settles after vertex 1
  b.AddEdge(1, first, 4);   // distance 5, queued when 1 settles
  b.AddEdge(2, second, 3);  // distance 5, queued when 2 settles
  return std::move(b).Build();
}

TEST(Knn, TiesAtTheKthDistancePickTheSmallerId) {
  // k = 2 splits the tie: whichever is queued first, 3 must win.
  for (bool larger_first : {false, true}) {
    const Graph g = TieGraph(larger_first);
    const std::vector<VertexId> pois = {1, 3, 4};
    const std::vector<KnnResult> expected = {{1, 1}, {3, 5}};
    EXPECT_EQ(KnnByDijkstra(g, pois, 0, 2), expected)
        << "larger_first=" << larger_first;
  }
}

TEST(Knn, KLargerThanPoiCount) {
  Graph g = TestNetwork(300, 13);
  const auto pois = RandomPois(g, 4, 3);
  const auto results = KnnByDijkstra(g, pois, 0, 100);
  EXPECT_LE(results.size(), 4u);
  EXPECT_GE(results.size(), 1u);
  EXPECT_EQ(results, BruteForceKnn(g, pois, 0, 100));
}

TEST(Knn, DuplicatePoisCollapse) {
  Graph g = TestNetwork(300, 17);
  std::vector<VertexId> pois = {7, 7, 7, 9};
  const auto results = KnnByDijkstra(g, pois, 0, 4);
  EXPECT_LE(results.size(), 2u);
  EXPECT_EQ(results, BruteForceKnn(g, pois, 0, 4));
}

TEST(Knn, QueryVertexIsPoi) {
  Graph g = TestNetwork(300, 19);
  std::vector<VertexId> pois = {5, 100, 200};
  const auto results = KnnByDijkstra(g, pois, 5, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].poi, 5u);
  EXPECT_EQ(results[0].dist, 0u);
}

TEST(Knn, DijkstraVariantStopsEarly) {
  Graph g = TestNetwork(2500, 23);
  const auto pois = RandomPois(g, 50, 31);
  // Settling only 1 nearest POI should explore far less than settling all.
  Dijkstra probe(g);
  probe.RunUntilSettled(0, pois, 1);
  const size_t near_ball = probe.SettledCount();
  probe.RunUntilSettled(0, pois);
  EXPECT_LT(near_ball, probe.SettledCount());
}

}  // namespace
}  // namespace roadnet
