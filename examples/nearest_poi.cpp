// The paper's motivating scenario (Section 2): "a user has a list of her
// favorite Italian restaurants, and she wants to identify the restaurant
// that is closest to her working place q ... she may issue a distance
// query from q to each of the restaurants."
//
// Distance-query-heavy workloads over far-apart endpoints are exactly
// where TNR shines, so this example runs the scenario on plain CH and on
// TNR-over-CH and reports both answers (they must agree) with timings.

#include <cstdio>
#include <vector>

#include "ch/ch_index.h"
#include "graph/generator.h"
#include "routing/knn.h"
#include "tnr/tnr_index.h"
#include "util/rng.h"
#include "util/timer.h"

int main() {
  using namespace roadnet;

  GeneratorConfig config;
  config.target_vertices = 20000;
  config.seed = 11;
  Graph g = GenerateRoadNetwork(config);
  std::printf("city network: %u vertices, %zu edges\n", g.NumVertices(),
              g.NumEdges());

  ChIndex ch(g);
  TnrConfig tnr_config;
  tnr_config.grid_resolution = DefaultGridResolution(g.NumVertices());
  TnrIndex tnr(g, &ch, tnr_config);
  std::printf("indexes ready (CH + TNR on a %ux%u grid, %zu access nodes)\n",
              tnr_config.grid_resolution, tnr_config.grid_resolution,
              tnr.NumAccessNodes());

  // The workplace and 40 scattered restaurants.
  Rng rng(5);
  const VertexId workplace = static_cast<VertexId>(
      rng.NextBelow(g.NumVertices()));
  std::vector<VertexId> restaurants;
  for (int i = 0; i < 40; ++i) {
    restaurants.push_back(
        static_cast<VertexId>(rng.NextBelow(g.NumVertices())));
  }

  auto nearest_with = [&](const PathIndex& index, double* micros) {
    const auto ctx = index.NewContext();
    Timer timer;
    VertexId best = kInvalidVertex;
    Distance best_dist = kInfDistance;
    for (VertexId r : restaurants) {
      const Distance d = index.DistanceQuery(ctx.get(), workplace, r);
      if (d < best_dist) {
        best_dist = d;
        best = r;
      }
    }
    *micros = timer.ElapsedMicros();
    return std::make_pair(best, best_dist);
  };

  double ch_us = 0, tnr_us = 0;
  const auto [ch_best, ch_dist] = nearest_with(ch, &ch_us);
  const auto [tnr_best, tnr_dist] = nearest_with(tnr, &tnr_us);

  std::printf("nearest restaurant from vertex %u:\n", workplace);
  std::printf("  CH : vertex %u at travel time %llu  (40 queries in %.1f us)\n",
              ch_best, static_cast<unsigned long long>(ch_dist), ch_us);
  std::printf("  TNR: vertex %u at travel time %llu  (40 queries in %.1f us)\n",
              tnr_best, static_cast<unsigned long long>(tnr_dist), tnr_us);
  if (ch_dist != tnr_dist) {
    std::printf("ERROR: the indexes disagree!\n");
    return 1;
  }
  std::printf("agreement: yes; TNR speedup on this batch: %.1fx\n",
              ch_us / tnr_us);

  // The same question without an index, k = 3: one expanding Dijkstra
  // from the workplace. Its nearest answer must match the indexes'.
  Timer knn_timer;
  const auto by_search = KnnByDijkstra(g, restaurants, workplace, 3);
  const double search_us = knn_timer.ElapsedMicros();
  std::printf("top-3 (expanding Dijkstra, %.1f us):", search_us);
  for (const auto& r : by_search) {
    std::printf(" v%u@%llu", r.poi, static_cast<unsigned long long>(r.dist));
  }
  std::printf("\n");
  if (by_search.empty() || by_search[0].dist != ch_dist) {
    std::printf("ERROR: Dijkstra disagrees with the indexes!\n");
    return 1;
  }

  // Show the route to the winner.
  const Path route = ch.PathQuery(ch.NewContext().get(), workplace, ch_best);
  std::printf("route (%zu vertices): ", route.size());
  for (size_t i = 0; i < route.size() && i < 10; ++i) {
    std::printf("%u ", route[i]);
  }
  if (route.size() > 10) std::printf("...");
  std::printf("\n");
  return 0;
}
