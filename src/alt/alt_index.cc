#include "alt/alt_index.h"

#include <algorithm>

#include "dijkstra/dijkstra.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace roadnet {

AltIndex::AltIndex(const Graph& g, const AltConfig& config) : graph_(g) {
  const uint32_t n = g.NumVertices();
  const uint32_t k = std::max(1u, std::min(config.num_landmarks, n));
  landmark_dist_.reserve(static_cast<size_t>(k) * n);

  // Farthest-point landmark selection: each new landmark maximizes its
  // distance to the closest already-chosen one, spreading landmarks along
  // the network periphery where their bounds are tight.
  Dijkstra dijkstra(g);
  Rng rng(config.seed);
  std::vector<Distance> min_dist(n, kInfDistance);
  VertexId next = static_cast<VertexId>(rng.NextBelow(n));
  for (uint32_t i = 0; i < k; ++i) {
    landmarks_.push_back(next);
    dijkstra.RunAll(next);
    VertexId farthest = next;
    Distance farthest_dist = 0;
    for (VertexId v = 0; v < n; ++v) {
      const Distance d = dijkstra.DistanceTo(v);
      landmark_dist_.push_back(d);
      if (d != kInfDistance) {
        min_dist[v] = std::min(min_dist[v], d);
        if (min_dist[v] > farthest_dist) {
          farthest_dist = min_dist[v];
          farthest = v;
        }
      }
    }
    next = farthest;
  }
}

Distance AltIndex::LowerBound(VertexId v, VertexId t) const {
  // Triangle inequality, both directions (the graph is undirected):
  // dist(v, t) >= |dist(L, t) - dist(L, v)| for every landmark L.
  Distance bound = 0;
  for (uint32_t i = 0; i < landmarks_.size(); ++i) {
    const Distance dv = LandmarkDistance(i, v);
    const Distance dt = LandmarkDistance(i, t);
    if (dv == kInfDistance || dt == kInfDistance) continue;
    const Distance diff = dv > dt ? dv - dt : dt - dv;
    bound = std::max(bound, diff);
  }
  return bound;
}

std::unique_ptr<QueryContext> AltIndex::NewContext() const {
  return std::make_unique<Context>(graph_.NumVertices());
}

Distance AltIndex::Search(Context* ctx, VertexId s, VertexId t) const {
  ++ctx->generation;
  ctx->heap.Clear();
  ctx->dist[s] = 0;
  ctx->parent[s] = kInvalidVertex;
  ctx->reached[s] = ctx->generation;
  ctx->heap.Push(s, LowerBound(s, t));
  ctx->counters.HeapPush();
  ctx->counters.TableLookup(landmarks_.size());

  while (!ctx->heap.Empty()) {
    const VertexId u = ctx->heap.PopMin();
    ctx->counters.HeapPop();
    ctx->settled[u] = ctx->generation;
    ctx->counters.Settle();
    if (u == t) return ctx->dist[t];
    const Distance du = ctx->dist[u];
    for (const Arc& a : graph_.Neighbors(u)) {
      if (ctx->settled[a.to] == ctx->generation) continue;
      ctx->counters.RelaxEdge();
      const Distance cand = du + a.weight;
      if (ctx->reached[a.to] != ctx->generation) {
        ctx->reached[a.to] = ctx->generation;
        ctx->dist[a.to] = cand;
        ctx->parent[a.to] = u;
        ctx->heap.Push(a.to, cand + LowerBound(a.to, t));
        ctx->counters.HeapPush();
        ctx->counters.TableLookup(landmarks_.size());
      } else if (cand < ctx->dist[a.to]) {
        // The potential is consistent, so keys only ever decrease with
        // the tentative distance.
        const Distance key = cand + LowerBound(a.to, t);
        ctx->dist[a.to] = cand;
        ctx->parent[a.to] = u;
        ctx->heap.DecreaseKey(a.to, key);
        ctx->counters.HeapPush();
        ctx->counters.TableLookup(landmarks_.size());
      }
    }
  }
  return kInfDistance;
}

Distance AltIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                 VertexId t) const {
  ctx->counters.Reset();
  if (s == t) return 0;
  return Search(static_cast<Context*>(ctx), s, t);
}

Path AltIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
                         VertexId t) const {
  Context* ctx = static_cast<Context*>(raw_ctx);
  ctx->counters.Reset();
  ctx->path_distance = 0;
  if (s == t) return {s};
  ctx->path_distance = Search(ctx, s, t);
  if (ctx->path_distance == kInfDistance) return {};
  Path path;
  for (VertexId cur = t; cur != kInvalidVertex; cur = ctx->parent[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

size_t AltIndex::IndexBytes() const {
  return VectorBytes(landmarks_) + VectorBytes(landmark_dist_);
}

}  // namespace roadnet
