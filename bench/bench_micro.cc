// Google-benchmark microbenchmarks for the primitives behind every
// technique: heap operations, point-to-point searches, index lookups.
// These complement the figure benches (which measure workload-level
// latencies the way the paper reports them) with stable per-operation
// numbers.

#include <memory>
#include <vector>

#include "benchmark/benchmark.h"
#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "pq/indexed_heap.h"
#include "silc/silc_index.h"
#include "tnr/tnr_index.h"
#include "util/rng.h"

namespace roadnet {
namespace {

// Shared fixtures, built once.
const Graph& BenchGraph() {
  static const Graph* const kGraph = [] {
    GeneratorConfig config;
    config.target_vertices = 4400;
    config.seed = 104;
    return new Graph(GenerateRoadNetwork(config));
  }();
  return *kGraph;
}

const ChIndex& BenchCh() {
  static ChIndex* const kCh = new ChIndex(BenchGraph());
  return *kCh;
}

const TnrIndex& BenchTnr() {
  static TnrIndex* const kTnr = [] {
    TnrConfig config;
    config.grid_resolution = DefaultGridResolution(BenchGraph().NumVertices());
    return new TnrIndex(BenchGraph(), &BenchCh(), config);
  }();
  return *kTnr;
}

const SilcIndex& BenchSilc() {
  static SilcIndex* const kSilc = new SilcIndex(BenchGraph());
  return *kSilc;
}

std::pair<VertexId, VertexId> RandomPair(Rng* rng) {
  const uint32_t n = BenchGraph().NumVertices();
  return {static_cast<VertexId>(rng->NextBelow(n)),
          static_cast<VertexId>(rng->NextBelow(n))};
}

void BM_HeapPushPop(benchmark::State& state) {
  const uint32_t kItems = 1024;
  IndexedHeap<uint64_t> heap(kItems);
  Rng rng(1);
  for (auto _ : state) {
    heap.Clear();
    for (uint32_t i = 0; i < kItems; ++i) heap.Push(i, rng.Next() >> 32);
    uint64_t sink = 0;
    while (!heap.Empty()) sink += heap.PopMin();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kItems * 2);
}
BENCHMARK(BM_HeapPushPop);

void BM_DijkstraSssp(benchmark::State& state) {
  Dijkstra dijkstra(BenchGraph());
  Rng rng(2);
  for (auto _ : state) {
    dijkstra.RunAll(
        static_cast<VertexId>(rng.NextBelow(BenchGraph().NumVertices())));
    benchmark::DoNotOptimize(dijkstra.SettledCount());
  }
}
BENCHMARK(BM_DijkstraSssp);

void BM_BidirectionalDistance(benchmark::State& state) {
  BidirectionalDijkstra bidi(BenchGraph());
  const auto ctx = bidi.NewContext();
  Rng rng(3);
  for (auto _ : state) {
    auto [s, t] = RandomPair(&rng);
    benchmark::DoNotOptimize(bidi.DistanceQuery(ctx.get(), s, t));
  }
}
BENCHMARK(BM_BidirectionalDistance);

void BM_ChDistance(benchmark::State& state) {
  const auto ctx = BenchCh().NewContext();
  Rng rng(4);
  for (auto _ : state) {
    auto [s, t] = RandomPair(&rng);
    benchmark::DoNotOptimize(BenchCh().DistanceQuery(ctx.get(), s, t));
  }
}
BENCHMARK(BM_ChDistance);

void BM_ChPath(benchmark::State& state) {
  const auto ctx = BenchCh().NewContext();
  Rng rng(5);
  for (auto _ : state) {
    auto [s, t] = RandomPair(&rng);
    benchmark::DoNotOptimize(BenchCh().PathQuery(ctx.get(), s, t).size());
  }
}
BENCHMARK(BM_ChPath);

void BM_TnrDistance(benchmark::State& state) {
  const auto ctx = BenchTnr().NewContext();
  Rng rng(6);
  for (auto _ : state) {
    auto [s, t] = RandomPair(&rng);
    benchmark::DoNotOptimize(BenchTnr().DistanceQuery(ctx.get(), s, t));
  }
}
BENCHMARK(BM_TnrDistance);

void BM_SilcNextHop(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    auto [s, t] = RandomPair(&rng);
    benchmark::DoNotOptimize(BenchSilc().NextHop(s, t));
  }
}
BENCHMARK(BM_SilcNextHop);

void BM_SilcPath(benchmark::State& state) {
  const auto ctx = BenchSilc().NewContext();
  Rng rng(8);
  for (auto _ : state) {
    auto [s, t] = RandomPair(&rng);
    benchmark::DoNotOptimize(BenchSilc().PathQuery(ctx.get(), s, t).size());
  }
}
BENCHMARK(BM_SilcPath);

}  // namespace
}  // namespace roadnet

BENCHMARK_MAIN();
