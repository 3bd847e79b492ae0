#include "reach/reach_index.h"

#include <algorithm>

#include "dijkstra/dijkstra.h"
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

std::unique_ptr<QueryContext> ReachIndex::NewContext() const {
  return std::make_unique<Context>(graph_.NumVertices());
}

void ReachIndex::SettleOne(Context* ctx, Side* side, const Side& other,
                           VertexId* best_meet, Distance* best_dist) const {
  VertexId u = side->heap.PopMin();
  ctx->counters.HeapPop();
  side->settled[u] = ctx->generation;
  ctx->counters.Settle();
  const Distance du = side->dist[u];

  // Reach pruning: if u sits deeper into this side than its reach allows,
  // any shortest path through u must end within reach(u) of the other
  // endpoint — and the other search has then already reached u. If it has
  // not, u is provably off every shortest path and its arcs are skipped.
  if (reach_[u] < du && other.reached[u] != ctx->generation &&
      !other.heap.Empty() && reach_[u] < other.heap.MinKey()) {
    return;
  }

  for (const Arc& a : graph_.Neighbors(u)) {
    ctx->counters.RelaxEdge();
    const Distance cand = du + a.weight;
    bool improved = false;
    if (side->reached[a.to] != ctx->generation) {
      side->reached[a.to] = ctx->generation;
      side->dist[a.to] = cand;
      side->parent[a.to] = u;
      side->heap.Push(a.to, cand);
      ctx->counters.HeapPush();
      improved = true;
    } else if (cand < side->dist[a.to] &&
               side->settled[a.to] != ctx->generation) {
      side->dist[a.to] = cand;
      side->parent[a.to] = u;
      side->heap.DecreaseKey(a.to, cand);
      ctx->counters.HeapPush();
      improved = true;
    }
    if (improved && other.reached[a.to] == ctx->generation) {
      const Distance total = cand + other.dist[a.to];
      if (total < *best_dist) {
        *best_dist = total;
        *best_meet = a.to;
      }
    }
  }
}

VertexId ReachIndex::Search(Context* ctx, VertexId s, VertexId t,
                            Distance* out_dist) const {
  ++ctx->generation;
  ctx->counters.Reset();
  Side& forward = ctx->forward;
  Side& backward = ctx->backward;
  forward.heap.Clear();
  backward.heap.Clear();

  forward.dist[s] = 0;
  forward.parent[s] = kInvalidVertex;
  forward.reached[s] = ctx->generation;
  forward.heap.Push(s, 0);
  backward.dist[t] = 0;
  backward.parent[t] = kInvalidVertex;
  backward.reached[t] = ctx->generation;
  backward.heap.Push(t, 0);
  ctx->counters.HeapPush(2);

  if (s == t) {
    *out_dist = 0;
    return s;
  }
  Distance best_dist = kInfDistance;
  VertexId best_meet = kInvalidVertex;
  while (!forward.heap.Empty() && !backward.heap.Empty()) {
    if (best_dist != kInfDistance &&
        forward.heap.MinKey() + backward.heap.MinKey() >= best_dist) {
      break;
    }
    if (forward.heap.MinKey() <= backward.heap.MinKey()) {
      SettleOne(ctx, &forward, backward, &best_meet, &best_dist);
    } else {
      SettleOne(ctx, &backward, forward, &best_meet, &best_dist);
    }
  }
  *out_dist = best_dist;
  return best_meet;
}

Distance ReachIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                   VertexId t) const {
  Distance d = kInfDistance;
  Search(static_cast<Context*>(ctx), s, t, &d);
  return d;
}

Path ReachIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
                           VertexId t) const {
  Context* ctx = static_cast<Context*>(raw_ctx);
  const VertexId meet = Search(ctx, s, t, &ctx->path_distance);
  if (meet == kInvalidVertex) return {};
  Path path;
  for (VertexId cur = meet; cur != kInvalidVertex;
       cur = ctx->forward.parent[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  for (VertexId cur = ctx->backward.parent[meet]; cur != kInvalidVertex;
       cur = ctx->backward.parent[cur]) {
    path.push_back(cur);
  }
  return path;
}

size_t ReachIndex::IndexBytes() const { return VectorBytes(reach_); }

}  // namespace roadnet
