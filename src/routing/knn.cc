#include "routing/knn.h"

#include <algorithm>

#include "dijkstra/dijkstra.h"

namespace roadnet {

namespace {

// Deterministic result ordering: by distance, then by vertex id.
void SortResults(std::vector<KnnResult>* results) {
  std::sort(results->begin(), results->end(),
            [](const KnnResult& a, const KnnResult& b) {
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.poi < b.poi;
            });
}

}  // namespace

std::vector<KnnResult> KnnByDijkstra(const Graph& g,
                                     const std::vector<VertexId>& pois,
                                     VertexId query, size_t k) {
  // Run until k distinct POIs settle (or the component is exhausted).
  Dijkstra dijkstra(g);
  dijkstra.RunUntilSettled(query, pois, k);

  // The heap pops equal keys in no fixed order, so the last POI to settle
  // need not have the smallest id at its distance. With positive weights
  // every vertex at that cutoff distance is already queued with its final
  // distance, so queued POIs at the cutoff are exact answers too, and the
  // sort below picks among the tied ones by vertex id.
  Distance cutoff = 0;
  for (VertexId p : pois) {
    if (dijkstra.Settled(p)) cutoff = std::max(cutoff, dijkstra.DistanceTo(p));
  }
  std::vector<KnnResult> results;
  for (VertexId p : pois) {
    const Distance d = dijkstra.DistanceTo(p);
    if (d <= cutoff) results.push_back(KnnResult{p, d});
  }
  SortResults(&results);
  // Drop duplicates (a POI listed twice is one answer).
  results.erase(std::unique(results.begin(), results.end()), results.end());
  if (results.size() > k) results.resize(k);
  return results;
}

}  // namespace roadnet
