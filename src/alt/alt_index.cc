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
  return std::make_unique<GoalDirectedContext>(graph_.NumVertices());
}

Distance AltIndex::Search(GoalDirectedContext* ctx, VertexId s,
                          VertexId t) const {
  // The potential is consistent, so a vertex's key only ever decreases
  // with its tentative distance.
  auto potential = [&](VertexId v) {
    ctx->counters.TableLookup(landmarks_.size());
    return LowerBound(v, t);
  };
  return GoalDirectedSearch(graph_, ctx, s, t, AllArcs{}, potential);
}

Distance AltIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                 VertexId t) const {
  return Search(static_cast<GoalDirectedContext*>(ctx), s, t);
}

Path AltIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
                         VertexId t) const {
  auto* ctx = static_cast<GoalDirectedContext*>(raw_ctx);
  ctx->path_distance = Search(ctx, s, t);
  if (ctx->path_distance == kInfDistance) return {};
  return s == t ? Path{s} : ctx->search.PathTo(t);
}

size_t AltIndex::IndexBytes() const {
  return VectorBytes(landmarks_) + VectorBytes(landmark_dist_);
}

}  // namespace roadnet
