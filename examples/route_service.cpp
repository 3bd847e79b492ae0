// A miniature routing service: load a road network (DIMACS 9th-challenge
// .gr/.co files, or a synthetic network when no files are given), build
// CH, and serve "s t" queries from stdin, printing travel time and route.
//
//   ./route_service graph.gr graph.co   < queries.txt
//   ./route_service                     # synthetic 50k-vertex network
//
// Query input: one "s t" pair per line (0-based vertex ids); "random N"
// generates and answers N random queries instead.

#include <cstdio>
#include <cstring>
#include <string>

#include "ch/ch_index.h"
#include "graph/dimacs.h"
#include "graph/generator.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace roadnet;

  Graph g;
  if (argc >= 3) {
    std::string error;
    auto loaded = ReadDimacsFiles(argv[1], argv[2], &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "failed to load %s / %s: %s\n", argv[1], argv[2],
                   error.c_str());
      return 1;
    }
    g = std::move(*loaded);
  } else {
    GeneratorConfig config;
    config.target_vertices = 50000;
    config.seed = 3;
    g = GenerateRoadNetwork(config);
  }
  std::fprintf(stderr, "network: %u vertices, %zu edges\n", g.NumVertices(),
               g.NumEdges());

  Timer build_timer;
  ChIndex ch(g);
  std::fprintf(stderr, "CH ready in %.2f s (%.1f MiB)\n",
               build_timer.ElapsedSeconds(),
               ch.IndexBytes() / (1024.0 * 1024.0));

  const auto ctx = ch.NewContext();
  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    unsigned long n = 0;
    if (std::sscanf(line, "random %lu", &n) == 1) {
      Rng rng(42);
      Timer timer;
      unsigned long long checksum = 0;
      for (unsigned long i = 0; i < n; ++i) {
        const VertexId s =
            static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
        const VertexId t =
            static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
        checksum += ch.DistanceQuery(ctx.get(), s, t);
      }
      std::printf("%lu random queries in %.1f us total (checksum %llu)\n", n,
                  timer.ElapsedMicros(), checksum);
      continue;
    }
    unsigned long s = 0, t = 0;
    if (std::sscanf(line, "%lu %lu", &s, &t) != 2 || s >= g.NumVertices() ||
        t >= g.NumVertices()) {
      std::printf("usage: \"<s> <t>\" with ids < %u, or \"random <N>\"\n",
                  g.NumVertices());
      continue;
    }
    Timer timer;
    const Path path = ch.PathQuery(ctx.get(), static_cast<VertexId>(s),
                                   static_cast<VertexId>(t));
    const double micros = timer.ElapsedMicros();
    if (path.empty()) {
      std::printf("%lu -> %lu: unreachable\n", s, t);
      continue;
    }
    const Distance d = PathWeight(g, path);
    std::printf("%lu -> %lu: travel time %llu, %zu vertices, %.1f us\n  via:",
                s, t, static_cast<unsigned long long>(d), path.size(),
                micros);
    for (size_t i = 0; i < path.size() && i < 12; ++i) {
      std::printf(" %u", path[i]);
    }
    if (path.size() > 12) std::printf(" ...");
    std::printf("\n");
  }
  return 0;
}
