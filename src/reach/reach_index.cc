#include "reach/reach_index.h"

#include <algorithm>

#include "dijkstra/dijkstra.h"
#include "dijkstra/search.h"
#include "util/bytes.h"

namespace roadnet {

ReachIndex::ReachIndex(const Graph& g)
    : graph_(g), reach_(g.NumVertices(), 0) {
  const uint32_t n = g.NumVertices();
  Dijkstra dijkstra(g);
  std::vector<std::pair<Distance, VertexId>> order;
  std::vector<Distance> height(n, 0);

  for (VertexId s = 0; s < n; ++s) {
    dijkstra.RunAll(s);
    // Process vertices by decreasing distance so every tight-edge
    // continuation below a vertex is finished before the vertex itself.
    order.clear();
    for (VertexId v = 0; v < n; ++v) {
      const Distance d = dijkstra.DistanceTo(v);
      if (d != kInfDistance) order.emplace_back(d, v);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [dv, v] : order) {
      Distance h = 0;
      for (const Arc& a : g.Neighbors(v)) {
        // Tight edge v -> x of the shortest-path DAG (covers every tied
        // shortest path, unlike a single parent tree).
        const Distance dx = dijkstra.DistanceTo(a.to);
        if (dx != kInfDistance && dv + a.weight == dx) {
          h = std::max(h, a.weight + height[a.to]);
        }
      }
      height[v] = h;
      reach_[v] = std::max(reach_[v], std::min(dv, h));
    }
  }
}

namespace {

// Reach pruning: if u sits deeper into this side than its reach allows,
// any shortest path through u must end within reach(u) of the other
// endpoint — and the other search has then already reached u. If it has
// not, u is provably off every shortest path and its arcs are skipped.
struct ReachTest {
  const std::vector<Distance>& reach;

  bool operator()(VertexId u, Distance du, const SearchState& other) const {
    return reach[u] < du && !other.Reached(u) && !other.heap.Empty() &&
           reach[u] < other.heap.MinKey();
  }
};

}  // namespace

std::unique_ptr<QueryContext> ReachIndex::NewContext() const {
  return std::make_unique<BidirectionalContext>(graph_.NumVertices());
}

Distance ReachIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                   VertexId t) const {
  Distance d = kInfDistance;
  BidirectionalSearch(graph_, static_cast<BidirectionalContext*>(ctx), s, t,
                      ReachTest{reach_}, &d);
  return d;
}

Path ReachIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
                           VertexId t) const {
  auto* ctx = static_cast<BidirectionalContext*>(raw_ctx);
  return ctx->PathThrough(BidirectionalSearch(
      graph_, ctx, s, t, ReachTest{reach_}, &ctx->path_distance));
}

size_t ReachIndex::IndexBytes() const { return VectorBytes(reach_); }

}  // namespace roadnet
