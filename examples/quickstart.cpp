// Quickstart: generate a road network, build the recommended index (CH),
// and answer one distance query and one shortest path query.
//
//   ./quickstart [num_vertices]

#include <cstdio>
#include <cstdlib>

#include "ch/ch_index.h"
#include "graph/generator.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace roadnet;

  // 1. A road network: synthetic here; see route_service.cpp for loading
  //    DIMACS .gr/.co files instead.
  GeneratorConfig config;
  config.target_vertices = argc > 1 ? std::atoi(argv[1]) : 10000;
  config.seed = 7;
  Graph g = GenerateRoadNetwork(config);
  std::printf("network: %u vertices, %zu edges\n", g.NumVertices(),
              g.NumEdges());

  // 2. Preprocess with Contraction Hierarchies — the paper's recommended
  //    default (smallest index, near-best queries of both kinds).
  Timer timer;
  ChIndex ch(g);
  std::printf("CH preprocessing: %.2f s, %zu shortcuts, %.1f MiB index\n",
              timer.ElapsedSeconds(), ch.NumShortcuts(),
              ch.IndexBytes() / (1024.0 * 1024.0));

  // 3. Queries. Pick two far-apart vertices. The index is immutable;
  //    per-query scratch lives in a context, one per thread.
  const VertexId s = 0;
  const VertexId t = g.NumVertices() - 1;
  const auto ctx = ch.NewContext();

  timer.Reset();
  const Distance d = ch.DistanceQuery(ctx.get(), s, t);
  std::printf("distance %u -> %u: %llu  (%.1f us)\n", s, t,
              static_cast<unsigned long long>(d), timer.ElapsedMicros());

  timer.Reset();
  const Path path = ch.PathQuery(ctx.get(), s, t);
  std::printf("shortest path: %zu vertices (%.1f us): ", path.size(),
              timer.ElapsedMicros());
  for (size_t i = 0; i < path.size() && i < 8; ++i) {
    std::printf("%u ", path[i]);
  }
  if (path.size() > 8) std::printf("... %u", path.back());
  std::printf("\n");
  return 0;
}
