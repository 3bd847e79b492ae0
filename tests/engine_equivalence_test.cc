// Engine equivalence: a batch pushed through the concurrent QueryEngine
// must give bit-identical answers to a single-threaded Dijkstra
// reference, for every technique and for both thread counts — this is
// the end-to-end proof that the index/context split left no hidden
// mutable state inside the shared indexes.

#include <memory>
#include <utility>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "engine/query_engine.h"
#include "pcpd/pcpd_index.h"
#include "silc/silc_index.h"
#include "tests/test_util.h"
#include "tnr/tnr_index.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

constexpr size_t kBatchSize = 200;

struct EngineFixture {
  Graph g;
  BidirectionalDijkstra bidi;
  ChIndex ch;
  TnrIndex tnr;
  SilcIndex silc;
  PcpdIndex pcpd;

  explicit EngineFixture(uint64_t seed)
      : g(TestNetwork(500, seed)),
        bidi(g),
        ch(g),
        tnr(g, &ch, SmallTnrConfig()),
        silc(g),
        pcpd(g) {}

  static TnrConfig SmallTnrConfig() {
    TnrConfig c;
    c.grid_resolution = 12;
    return c;
  }

  std::vector<PathIndex*> Indexes() {
    return {&bidi, &ch, &tnr, &silc, &pcpd};
  }
};

TEST(EngineEquivalence, BatchesMatchDijkstraAtOneAndFourThreads) {
  EngineFixture f(/*seed=*/101);
  const auto queries = RandomPairs(f.g, kBatchSize, /*seed=*/900);

  // Single-threaded ground truth.
  Dijkstra reference(f.g);
  std::vector<Distance> truth(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    truth[i] = reference.Run(queries[i].first, queries[i].second);
  }

  BatchOptions options;
  options.collect_paths = true;
  for (PathIndex* index : f.Indexes()) {
    for (size_t threads : {1u, 4u}) {
      QueryEngine engine(*index, threads);
      BatchResult result = engine.Run(queries, options);
      ASSERT_EQ(result.distances.size(), queries.size());
      ASSERT_EQ(result.paths.size(), queries.size());
      EXPECT_EQ(result.stats.num_queries, queries.size());
      EXPECT_EQ(result.stats.num_threads, threads);

      for (size_t i = 0; i < queries.size(); ++i) {
        const auto [s, t] = queries[i];
        EXPECT_EQ(result.distances[i], truth[i])
            << index->Name() << " threads=" << threads << " s=" << s
            << " t=" << t;
        const Path& p = result.paths[i];
        if (truth[i] == kInfDistance) {
          EXPECT_TRUE(p.empty()) << index->Name();
          continue;
        }
        ASSERT_FALSE(p.empty())
            << index->Name() << " threads=" << threads << " s=" << s
            << " t=" << t;
        EXPECT_EQ(p.front(), s) << index->Name();
        EXPECT_EQ(p.back(), t) << index->Name();
        // Consecutive hops must be real edges and their weights must sum
        // to the reported distance.
        EXPECT_TRUE(IsValidPath(f.g, p))
            << index->Name() << " path has a non-edge hop, s=" << s
            << " t=" << t;
        EXPECT_EQ(PathWeight(f.g, p), truth[i])
            << index->Name() << " path weight mismatch, s=" << s
            << " t=" << t;
      }
    }
  }
}

TEST(EngineEquivalence, DistanceOnlyBatchLeavesPathsEmpty) {
  EngineFixture f(/*seed=*/202);
  const auto queries = RandomPairs(f.g, 50, /*seed=*/901);
  QueryEngine engine(f.ch, 2);
  BatchResult result = engine.Run(queries);  // default: distances only
  EXPECT_EQ(result.distances.size(), queries.size());
  EXPECT_TRUE(result.paths.empty());
  EXPECT_GT(result.stats.queries_per_second, 0.0);
}

TEST(EngineEquivalence, EmptyBatchIsANoOp) {
  EngineFixture f(/*seed=*/303);
  QueryEngine engine(f.bidi, 4);
  std::vector<std::pair<VertexId, VertexId>> none;
  BatchResult result = engine.Run(none);
  EXPECT_TRUE(result.distances.empty());
  EXPECT_EQ(result.stats.num_queries, 0u);
}

TEST(EngineEquivalence, BatchStatsDeriveFromMergedHistogramAndCounters) {
  EngineFixture f(/*seed=*/505);
  const auto queries = RandomPairs(f.g, 300, /*seed=*/903);

  // Single-threaded counter ground truth: the engine's per-worker sums
  // must add up to exactly this, no matter how the batch was split.
  QueryCounters expected;
  auto ctx = f.ch.NewContext();
  for (const auto& [s, t] : queries) {
    f.ch.DistanceQuery(ctx.get(), s, t);
    expected += ctx->counters;
  }

  for (size_t threads : {1u, 4u}) {
    QueryEngine engine(f.ch, threads);
    BatchResult result = engine.Run(queries);
    const BatchStats& stats = result.stats;
    EXPECT_EQ(stats.counters, expected) << "threads=" << threads;
    // Percentiles come from the merged histogram: present, ordered, and
    // bounded by the exact max.
    EXPECT_EQ(result.latency.Count(), queries.size());
    EXPECT_GT(stats.p50_micros, 0.0);
    EXPECT_LE(stats.p50_micros, stats.p90_micros);
    EXPECT_LE(stats.p90_micros, stats.p99_micros);
    EXPECT_LE(stats.p99_micros, stats.p999_micros);
    EXPECT_LE(stats.p999_micros, stats.max_micros);
  }
}

TEST(EngineEquivalence, PathBatchRunsOneSearchPerQuery) {
  // A path batch answers each query with one PathQuery, whose search
  // settles exactly what the distance query's does: the batch totals
  // match a distance batch's, and every per-query snapshot is that one
  // path query's counters.
  EngineFixture f(/*seed=*/707);
  const auto queries = RandomPairs(f.g, 120, /*seed=*/905);
  QueryEngine engine(f.ch, 2);
  const BatchResult dist = engine.Run(queries);
  BatchOptions options;
  options.collect_paths = true;
  options.record_per_query = true;
  const BatchResult path = engine.Run(queries, options);

  EXPECT_GT(dist.stats.counters.vertices_settled, 0u);
  EXPECT_EQ(path.stats.counters.vertices_settled,
            dist.stats.counters.vertices_settled);
  EXPECT_EQ(path.distances, dist.distances);
  ASSERT_EQ(path.query_counters.size(), queries.size());
  auto ctx = f.ch.NewContext();
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto [s, t] = queries[i];
    f.ch.PathQuery(ctx.get(), s, t);
    EXPECT_EQ(path.query_counters[i], ctx->counters)
        << "s=" << s << " t=" << t;
  }
}

TEST(EngineEquivalence, ReusedContextMatchesFreshContexts) {
  // One context kept for a whole run of queries must answer exactly like
  // a fresh context per query: no scratch state may leak from one query
  // into the next.
  EngineFixture f(/*seed=*/404);
  const auto queries = RandomPairs(f.g, 40, /*seed=*/902);
  for (PathIndex* index : f.Indexes()) {
    const auto reused = index->NewContext();
    for (auto [s, t] : queries) {
      EXPECT_EQ(index->DistanceQuery(reused.get(), s, t),
                index->DistanceQuery(index->NewContext().get(), s, t))
          << index->Name() << " s=" << s << " t=" << t;
      EXPECT_EQ(index->PathQuery(reused.get(), s, t),
                index->PathQuery(index->NewContext().get(), s, t))
          << index->Name() << " s=" << s << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace roadnet
