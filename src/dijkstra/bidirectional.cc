#include "dijkstra/bidirectional.h"

#include <algorithm>

namespace roadnet {

BidirectionalDijkstra::BidirectionalDijkstra(const Graph& g) : graph_(g) {}

std::unique_ptr<QueryContext> BidirectionalDijkstra::NewContext() const {
  return std::make_unique<Context>(graph_.NumVertices());
}

void BidirectionalDijkstra::SettleOne(Context* ctx, Side* side,
                                      const Side& other, VertexId* best_meet,
                                      Distance* best_dist) const {
  VertexId u = side->heap.PopMin();
  ctx->counters.HeapPop();
  side->settled[u] = ctx->generation;
  ctx->counters.Settle();
  const Distance du = side->dist[u];
  for (const Arc& a : graph_.Neighbors(u)) {
    ctx->counters.RelaxEdge();
    const Distance cand = du + a.weight;
    bool improved = false;
    if (!side->Reached(a.to, ctx->generation)) {
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
    // Any vertex reached by both searches is a candidate meeting point;
    // checking on every improvement covers both the "meet at a vertex" and
    // the "cross an edge between the two settled sets" cases from the
    // paper's correctness argument.
    if (improved && other.Reached(a.to, ctx->generation)) {
      const Distance total = cand + other.dist[a.to];
      if (total < *best_dist) {
        *best_dist = total;
        *best_meet = a.to;
      }
    }
  }
}

VertexId BidirectionalDijkstra::Search(Context* ctx, VertexId s, VertexId t,
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

  Distance best_dist = kInfDistance;
  VertexId best_meet = kInvalidVertex;
  if (s == t) {
    *out_dist = 0;
    return s;
  }

  while (!forward.heap.Empty() && !backward.heap.Empty()) {
    // Termination: once the two frontier minima together cannot beat the
    // best meeting point, no unexplored vertex can improve the answer.
    if (best_dist != kInfDistance &&
        forward.heap.MinKey() + backward.heap.MinKey() >= best_dist) {
      break;
    }
    // Balance the searches by expanding the smaller frontier key.
    if (forward.heap.MinKey() <= backward.heap.MinKey()) {
      SettleOne(ctx, &forward, backward, &best_meet, &best_dist);
    } else {
      SettleOne(ctx, &backward, forward, &best_meet, &best_dist);
    }
  }
  *out_dist = best_dist;
  return best_meet;
}

Distance BidirectionalDijkstra::DistanceQuery(QueryContext* ctx, VertexId s,
                                              VertexId t) const {
  Distance d = kInfDistance;
  Search(static_cast<Context*>(ctx), s, t, &d);
  return d;
}

Path BidirectionalDijkstra::PathQuery(QueryContext* raw_ctx, VertexId s,
                                      VertexId t) const {
  Context* ctx = static_cast<Context*>(raw_ctx);
  const VertexId meet = Search(ctx, s, t, &ctx->path_distance);
  if (meet == kInvalidVertex) return {};

  // Forward half: meet back to s, reversed.
  Path path;
  for (VertexId cur = meet; cur != kInvalidVertex;
       cur = ctx->forward.parent[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  // Backward half: parents of the t-rooted tree lead from meet toward t.
  for (VertexId cur = ctx->backward.parent[meet]; cur != kInvalidVertex;
       cur = ctx->backward.parent[cur]) {
    path.push_back(cur);
  }
  return path;
}

}  // namespace roadnet
