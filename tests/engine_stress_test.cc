// Engine stress: hammer one shared index from many threads with
// overlapping random batches and assert the answers are identical across
// repeated runs. Any cross-context data race (a scratch array secretly
// shared through the index) shows up here as a flaky mismatch — and as a
// hard error under ThreadSanitizer (see scripts/check.sh).

#include <utility>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "engine/query_engine.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kBatchQueries = 400;
constexpr int kRepeats = 5;

// Runs `kRepeats` batches of the same queries through an engine with
// kThreads workers and checks every run returns the same distances.
void ExpectStableUnderConcurrency(const Graph& g, const PathIndex& index) {
  const auto queries = RandomPairs(g, kBatchQueries, /*seed=*/777);
  QueryEngine engine(index, kThreads);

  BatchOptions options;
  // Tiny chunks force heavy cursor contention and cross-segment steals.
  options.chunk_size = 1;

  const BatchResult first = engine.Run(queries, options);
  ASSERT_EQ(first.distances.size(), queries.size());
  for (int run = 1; run < kRepeats; ++run) {
    const BatchResult next = engine.Run(queries, options);
    ASSERT_EQ(next.distances, first.distances)
        << index.Name() << " diverged on run " << run;
  }
}

TEST(EngineStress, BidirectionalDijkstraStableAcrossRuns) {
  Graph g = TestNetwork(800, /*seed=*/51);
  BidirectionalDijkstra bidi(g);
  ExpectStableUnderConcurrency(g, bidi);
}

TEST(EngineStress, ChStableAcrossRuns) {
  Graph g = TestNetwork(800, /*seed=*/52);
  ChIndex ch(g);
  ExpectStableUnderConcurrency(g, ch);
}

TEST(EngineStress, TwoEnginesShareOneIndex) {
  // Two engines (16 workers total) over the same immutable ChIndex,
  // interleaving batches; the index/context contract says this is safe.
  Graph g = TestNetwork(600, /*seed=*/53);
  ChIndex ch(g);
  const auto queries_a = RandomPairs(g, 200, /*seed=*/1);
  const auto queries_b = RandomPairs(g, 200, /*seed=*/2);

  Dijkstra reference(g);
  std::vector<Distance> truth_a, truth_b;
  for (auto [s, t] : queries_a) truth_a.push_back(reference.Run(s, t));
  for (auto [s, t] : queries_b) truth_b.push_back(reference.Run(s, t));

  QueryEngine engine_a(ch, kThreads);
  QueryEngine engine_b(ch, kThreads);
  for (int run = 0; run < kRepeats; ++run) {
    const BatchResult a = engine_a.Run(queries_a);
    const BatchResult b = engine_b.Run(queries_b);
    EXPECT_EQ(a.distances, truth_a) << "run " << run;
    EXPECT_EQ(b.distances, truth_b) << "run " << run;
  }
}

TEST(EngineStress, PathBatchesStableAcrossRuns) {
  Graph g = TestNetwork(500, /*seed=*/54);
  ChIndex ch(g);
  const auto queries = RandomPairs(g, 150, /*seed=*/3);
  QueryEngine engine(ch, kThreads);
  BatchOptions options;
  options.collect_paths = true;
  options.chunk_size = 2;
  const BatchResult first = engine.Run(queries, options);
  for (int run = 1; run < kRepeats; ++run) {
    const BatchResult next = engine.Run(queries, options);
    ASSERT_EQ(next.distances, first.distances) << "run " << run;
    ASSERT_EQ(next.paths, first.paths) << "run " << run;
  }
}

}  // namespace
}  // namespace roadnet
