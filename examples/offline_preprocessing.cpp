// Deployment workflow: preprocess once, persist the index, and bring a
// "query server" up from the serialized artifacts without redoing any
// preprocessing — the regime the paper's 30-minute US-scale CH
// preprocessing implies for production map services.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ch/ch_index.h"
#include "graph/generator.h"
#include "io/serialize.h"
#include "util/rng.h"
#include "util/timer.h"

int main() {
  using namespace roadnet;

  // --- "Preprocessing host": build everything from scratch. ---
  GeneratorConfig config;
  config.target_vertices = 30000;
  config.seed = 21;
  Graph g = GenerateRoadNetwork(config);
  Timer timer;
  ChIndex ch(g);
  const double preprocess_s = timer.ElapsedSeconds();
  std::printf("preprocessing host: %u vertices, CH built in %.2f s\n",
              g.NumVertices(), preprocess_s);

  // Persist both artifacts (in-memory streams here; roadnet_cli does the
  // same against files).
  std::stringstream graph_blob, index_blob;
  WriteGraph(g, graph_blob);
  ch.Serialize(index_blob);
  std::printf("artifacts: graph %.1f MiB, index %.1f MiB\n",
              graph_blob.str().size() / (1024.0 * 1024.0),
              index_blob.str().size() / (1024.0 * 1024.0));

  // --- "Query server": load artifacts, no preprocessing. ---
  timer.Reset();
  std::string error;
  auto loaded_graph = ReadGraph(graph_blob, &error);
  if (!loaded_graph.has_value()) {
    std::fprintf(stderr, "graph load failed: %s\n", error.c_str());
    return 1;
  }
  auto loaded_ch = ChIndex::Deserialize(*loaded_graph, index_blob, &error);
  if (loaded_ch == nullptr) {
    std::fprintf(stderr, "index load failed: %s\n", error.c_str());
    return 1;
  }
  const double load_s = timer.ElapsedSeconds();
  std::printf("query server up in %.3f s (%.0fx faster than preprocessing)\n",
              load_s, preprocess_s / load_s);

  // Serve a query burst and cross-check against the original index.
  Rng rng(3);
  const auto loaded_ctx = loaded_ch->NewContext();
  const auto ctx = ch.NewContext();
  timer.Reset();
  size_t mismatches = 0;
  const int kQueries = 2000;
  for (int i = 0; i < kQueries; ++i) {
    const VertexId s = static_cast<VertexId>(
        rng.NextBelow(loaded_graph->NumVertices()));
    const VertexId t = static_cast<VertexId>(
        rng.NextBelow(loaded_graph->NumVertices()));
    if (loaded_ch->DistanceQuery(loaded_ctx.get(), s, t) !=
        ch.DistanceQuery(ctx.get(), s, t)) {
      ++mismatches;
    }
  }
  std::printf("%d distance queries in %.1f ms, %zu mismatches vs the "
              "original index (must be 0)\n",
              kQueries, timer.ElapsedMicros() / 1000.0 / 2, mismatches);
  return mismatches == 0 ? 0 : 1;
}
