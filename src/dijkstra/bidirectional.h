#ifndef ROADNET_DIJKSTRA_BIDIRECTIONAL_H_
#define ROADNET_DIJKSTRA_BIDIRECTIONAL_H_

#include <memory>

#include "graph/graph.h"
#include "graph/types.h"
#include "routing/path.h"
#include "routing/path_index.h"

namespace roadnet {

// Bidirectional Dijkstra (Pohl 1971), the paper's baseline (Section 3.1).
// Two simultaneous Dijkstra instances grow shortest-path trees from s and
// from t; the searches stop once the sum of the two frontier minima proves
// no better meeting point exists, and the answer is the best
// dist(s, u) + dist(u, t) seen over all doubly-reached vertices u.
//
// Implements PathIndex with zero preprocessing and zero index space; the
// search is BidirectionalSearch (search.h) with no pruning, and all of its
// state lives in the QueryContext, so one instance serves any number of
// threads.
class BidirectionalDijkstra : public PathIndex {
 public:
  explicit BidirectionalDijkstra(const Graph& g);

  std::string Name() const override { return "Dijkstra"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override { return 0; }

 private:
  const Graph& graph_;
};

}  // namespace roadnet

#endif  // ROADNET_DIJKSTRA_BIDIRECTIONAL_H_
