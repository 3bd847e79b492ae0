#include "dijkstra/bidirectional.h"

#include "dijkstra/search.h"

namespace roadnet {

BidirectionalDijkstra::BidirectionalDijkstra(const Graph& g) : graph_(g) {}

std::unique_ptr<QueryContext> BidirectionalDijkstra::NewContext() const {
  return std::make_unique<BidirectionalContext>(graph_.NumVertices());
}

Distance BidirectionalDijkstra::DistanceQuery(QueryContext* ctx, VertexId s,
                                              VertexId t) const {
  Distance d = kInfDistance;
  BidirectionalSearch(graph_, static_cast<BidirectionalContext*>(ctx), s, t,
                      NoPrune{}, &d);
  return d;
}

Path BidirectionalDijkstra::PathQuery(QueryContext* raw_ctx, VertexId s,
                                      VertexId t) const {
  auto* ctx = static_cast<BidirectionalContext*>(raw_ctx);
  return ctx->PathThrough(
      BidirectionalSearch(graph_, ctx, s, t, NoPrune{}, &ctx->path_distance));
}

}  // namespace roadnet
