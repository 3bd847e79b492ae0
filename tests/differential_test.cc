// Cross-technique differential harness: every technique in the tree
// must agree with the Dijkstra oracle — and therefore with every other
// technique — on every query, exactly. A future technique gets oracle
// coverage for free by joining the `techniques` list in RunDifferential.
//
// On failure the output names the graph/query seeds and the minimal
// offending (s, t) pair, so a regression reproduces with one line.

#include <algorithm>
#include <string>
#include <vector>

#include "alt/alt_index.h"
#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "dijkstra/dijkstra.h"
#include "hl/hl_index.h"
#include "knn/ier.h"
#include "knn/knn_index.h"
#include "poi/poi_set.h"
#include "routing/knn.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

struct Mismatch {
  VertexId s;
  VertexId t;
  std::string what;
};

void RunDifferential(uint32_t target_vertices, uint64_t graph_seed,
                     size_t num_queries) {
  const uint64_t query_seed = graph_seed + 1;
  Graph g = TestNetwork(target_vertices, graph_seed);

  Dijkstra oracle(g);
  BidirectionalDijkstra bidi(g);
  ChIndex ch(g);
  HlIndex hl(g, ch);
  AltIndex alt(g);
  std::vector<const PathIndex*> techniques = {&bidi, &ch, &hl, &alt};
  std::vector<std::unique_ptr<QueryContext>> contexts;
  for (const PathIndex* index : techniques) {
    contexts.push_back(index->NewContext());
  }

  const auto pairs = RandomPairs(g, num_queries, query_seed);
  std::vector<Mismatch> mismatches;
  for (size_t qi = 0; qi < pairs.size(); ++qi) {
    const auto [s, t] = pairs[qi];
    const Distance truth = oracle.Run(s, t);
    for (size_t i = 0; i < techniques.size(); ++i) {
      const PathIndex* index = techniques[i];
      QueryContext* ctx = contexts[i].get();
      const Distance got = index->DistanceQuery(ctx, s, t);
      if (got != truth) {
        mismatches.push_back(
            {s, t,
             index->Name() + " distance " + std::to_string(got) +
                 " != oracle " + std::to_string(truth)});
        continue;
      }
      // Path queries cost an order of magnitude more than distance
      // queries; sample them, but check the sampled ones fully: the
      // distance the path query reported, then a real path in g whose
      // weight equals it.
      if (qi % 16 != 0) continue;
      ctx->path_distance = kPoisonDistance;
      const Path path = index->PathQuery(ctx, s, t);
      if (ctx->path_distance != truth) {
        mismatches.push_back(
            {s, t,
             index->Name() + " path distance " +
                 std::to_string(ctx->path_distance) + " != oracle " +
                 std::to_string(truth)});
        continue;
      }
      if (truth == kInfDistance) {
        if (!path.empty()) {
          mismatches.push_back(
              {s, t, index->Name() + " returned a path for unreachable t"});
        }
        continue;
      }
      if (path.empty() || path.front() != s || path.back() != t) {
        mismatches.push_back(
            {s, t, index->Name() + " path endpoints wrong or empty"});
      } else if (!IsValidPath(g, path)) {
        mismatches.push_back(
            {s, t, index->Name() + " path contains a non-edge hop"});
      } else if (PathWeight(g, path) != truth) {
        mismatches.push_back(
            {s, t,
             index->Name() + " path weight " +
                 std::to_string(PathWeight(g, path)) + " != distance " +
                 std::to_string(truth)});
      }
    }
  }

  if (!mismatches.empty()) {
    std::sort(mismatches.begin(), mismatches.end(),
              [](const Mismatch& a, const Mismatch& b) {
                return std::pair(a.s, a.t) < std::pair(b.s, b.t);
              });
    const Mismatch& m = mismatches.front();
    FAIL() << mismatches.size() << " disagreement(s) over " << num_queries
           << " queries on the " << g.NumVertices()
           << "-vertex network; graph seed " << graph_seed << ", query seed "
           << query_seed << "; minimal offending pair s=" << m.s
           << " t=" << m.t << " (" << m.what << ")";
  }
}

// kNN differential: bucket-CH, IER, and the index-free Dijkstra
// expansion must return identical result lists — same POIs, same
// distances, same (distance, vertex id) order — and one-to-many must
// equal kNN with k = |category|. Densities span three powers of ten
// (plus an empty category), so the sweep crosses k < |category|,
// k > |category|, and |category| == 0.
void RunKnnDifferential(uint32_t target_vertices, uint64_t graph_seed,
                        size_t num_queries) {
  const uint64_t query_seed = graph_seed + 1;
  Graph g = TestNetwork(target_vertices, graph_seed);
  ChIndex ch(g);

  PoiConfig config;
  config.categories = {{"dense", 0.05}, {"mid", 0.005},
                       {"sparse", 0.001}, {"none", 0.0}};
  config.seed = graph_seed + 2;
  const PoiSet pois = PoiSet::Generate(g, config);
  ASSERT_EQ(pois.Vertices(3).size(), 0u) << "density 0 must be empty";

  KnnBucketIndex bucket(ch, pois);
  IerKnnIndex ier(g, ch, pois);
  KnnBucketIndex::Context bucket_ctx = bucket.NewContext();
  IerKnnIndex::Context ier_ctx = ier.NewContext();

  std::vector<std::vector<VertexId>> cat_vecs;
  for (uint32_t c = 0; c < pois.NumCategories(); ++c) {
    const auto span = pois.Vertices(c);
    cat_vecs.emplace_back(span.begin(), span.end());
  }

  const size_t ks[] = {0, 1, 2, 5, 23, 1000};
  Rng rng(query_seed);
  std::vector<KnnResult> from_bucket, from_ier, one_to_many;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const auto s = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
    const auto c = static_cast<uint32_t>(rng.NextBelow(pois.NumCategories()));
    const size_t k = ks[qi % (sizeof(ks) / sizeof(ks[0]))];
    const std::vector<KnnResult> truth = KnnByDijkstra(g, cat_vecs[c], s, k);
    bucket.KnnQuery(&bucket_ctx, c, s, k, &from_bucket);
    ier.KnnQuery(&ier_ctx, c, s, k, &from_ier);
    ASSERT_EQ(from_bucket, truth)
        << "bucket-CH disagrees with the Dijkstra oracle; graph seed "
        << graph_seed << ", s=" << s << " category=" << c << " k=" << k;
    ASSERT_EQ(from_ier, truth)
        << "IER disagrees with the Dijkstra oracle; graph seed "
        << graph_seed << ", s=" << s << " category=" << c << " k=" << k;
    // One-to-many is definitionally kNN with k = |category| — check on a
    // sample (it is the most expensive of the three calls).
    if (qi % 8 != 0) continue;
    bucket.OneToManyQuery(&bucket_ctx, c, s, &one_to_many);
    bucket.KnnQuery(&bucket_ctx, c, s, cat_vecs[c].size(), &from_bucket);
    ASSERT_EQ(one_to_many, from_bucket)
        << "one-to-many != k=|category| kNN; graph seed " << graph_seed
        << ", s=" << s << " category=" << c;
  }
}

TEST(Differential, AllTechniquesAgreeOnTenThousandQueries) {
  RunDifferential(700, 20260809, 10000);
}

TEST(Differential, KnnStrategiesAgreeOnTwelveHundredQueries) {
  RunKnnDifferential(700, 20260810, 1200);
}

// A second network for the kNN family too, denser in POIs relative to
// its size so bucket scans regularly cross category boundaries.
TEST(Differential, KnnStrategiesAgreeOnSecondNetwork) {
  RunKnnDifferential(250, 661, 600);
}

// A second, structurally different network (other seed and size), so a
// bug tied to one generator layout cannot hide behind the main sweep.
TEST(Differential, AllTechniquesAgreeOnSecondNetwork) {
  RunDifferential(300, 977, 2000);
}

}  // namespace
}  // namespace roadnet
