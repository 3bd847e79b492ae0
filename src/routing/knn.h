#ifndef ROADNET_ROUTING_KNN_H_
#define ROADNET_ROUTING_KNN_H_

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace roadnet {

// k-nearest-neighbour queries over a fixed set of points of interest —
// the paper's Section 2 motivating scenario ("identify the restaurant
// closest to her working place") generalized to k results. KnnByDijkstra
// is the index-free oracle the kNN indexes of src/knn/ are tested against.

struct KnnResult {
  VertexId poi;
  Distance dist;

  friend bool operator==(const KnnResult& a, const KnnResult& b) {
    return a.poi == b.poi && a.dist == b.dist;
  }
};

// Expanding-search kNN: one Dijkstra from `query` that stops once k
// distinct POIs have settled. Returns at most k distinct POIs sorted by
// (distance, vertex id); unreachable POIs are left out. O(search ball)
// time, no preprocessing.
std::vector<KnnResult> KnnByDijkstra(const Graph& g,
                                     const std::vector<VertexId>& pois,
                                     VertexId query, size_t k);

}  // namespace roadnet

#endif  // ROADNET_ROUTING_KNN_H_
