#include "arcflags/arc_flags.h"

#include <algorithm>

#include "dijkstra/dijkstra.h"
#include "util/bytes.h"

namespace roadnet {

ArcFlagsIndex::ArcFlagsIndex(const Graph& g, const ArcFlagsConfig& config)
    : graph_(g) {
  const uint32_t n = g.NumVertices();

  // Regions: grid cells of a coarse partition, renumbered densely over
  // the non-empty ones.
  CellGrid grid(g, config.region_resolution);
  std::vector<uint32_t> dense(grid.NumCells(), 0);
  num_regions_ = 0;
  for (uint32_t cell : grid.NonEmptyCells()) dense[cell] = num_regions_++;
  region_of_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    region_of_[v] = dense[grid.CellIndex(grid.CellOf(v))];
  }

  words_per_arc_ = (num_regions_ + 63) / 64;
  flags_.assign(g.NumArcs() * words_per_arc_, 0);

  // Rule 1: every arc whose head lies in region r is flagged for r (the
  // within-region part of any shortest path).
  for (VertexId u = 0; u < n; ++u) {
    size_t idx = g.FirstArcIndex(u);
    for (const Arc& a : g.Neighbors(u)) {
      SetFlag(idx++, region_of_[a.to]);
    }
  }

  // Rule 2: arc (u, v) is flagged for r if it begins a shortest path from
  // u to some boundary vertex b of r, i.e. dist(u, b) == w + dist(v, b).
  // This is arithmetic over exact distances, so every tied shortest path
  // is covered — the pruning never cuts an optimal route.
  std::vector<VertexId> boundary;
  Dijkstra dijkstra(g);
  std::vector<std::vector<VertexId>> region_boundary(num_regions_);
  for (VertexId v = 0; v < n; ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      if (region_of_[a.to] != region_of_[v]) {
        region_boundary[region_of_[v]].push_back(v);
        break;
      }
    }
  }
  for (uint32_t r = 0; r < num_regions_; ++r) {
    for (VertexId b : region_boundary[r]) {
      dijkstra.RunAll(b);
      for (VertexId u = 0; u < n; ++u) {
        const Distance du = dijkstra.DistanceTo(u);
        if (du == kInfDistance) continue;
        size_t idx = g.FirstArcIndex(u);
        for (const Arc& a : g.Neighbors(u)) {
          const Distance dv = dijkstra.DistanceTo(a.to);
          if (dv != kInfDistance && dv + a.weight == du) SetFlag(idx, r);
          ++idx;
        }
      }
    }
  }

  arc_offsets_.reserve(n);
  for (VertexId v = 0; v < n; ++v) arc_offsets_.push_back(g.FirstArcIndex(v));
}

std::unique_ptr<QueryContext> ArcFlagsIndex::NewContext() const {
  return std::make_unique<Context>(graph_.NumVertices());
}

Distance ArcFlagsIndex::Search(Context* ctx, VertexId s, VertexId t) const {
  const uint32_t target_region = region_of_[t];
  ++ctx->generation;
  ctx->heap.Clear();
  ctx->dist[s] = 0;
  ctx->parent[s] = kInvalidVertex;
  ctx->reached[s] = ctx->generation;
  ctx->heap.Push(s, 0);
  ctx->counters.HeapPush();
  while (!ctx->heap.Empty()) {
    const VertexId u = ctx->heap.PopMin();
    ctx->counters.HeapPop();
    ctx->settled[u] = ctx->generation;
    ctx->counters.Settle();
    if (u == t) return ctx->dist[t];
    const Distance du = ctx->dist[u];
    size_t idx = arc_offsets_[u];
    for (const Arc& a : graph_.Neighbors(u)) {
      const size_t arc_index = idx++;
      if (!ArcFlag(arc_index, target_region)) continue;  // pruned
      if (ctx->settled[a.to] == ctx->generation) continue;
      ctx->counters.RelaxEdge();
      const Distance cand = du + a.weight;
      if (ctx->reached[a.to] != ctx->generation) {
        ctx->reached[a.to] = ctx->generation;
        ctx->dist[a.to] = cand;
        ctx->parent[a.to] = u;
        ctx->heap.Push(a.to, cand);
        ctx->counters.HeapPush();
      } else if (cand < ctx->dist[a.to]) {
        ctx->dist[a.to] = cand;
        ctx->parent[a.to] = u;
        ctx->heap.DecreaseKey(a.to, cand);
        ctx->counters.HeapPush();
      }
    }
  }
  return kInfDistance;
}

Distance ArcFlagsIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                      VertexId t) const {
  ctx->counters.Reset();
  if (s == t) return 0;
  return Search(static_cast<Context*>(ctx), s, t);
}

Path ArcFlagsIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
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

size_t ArcFlagsIndex::IndexBytes() const {
  return VectorBytes(region_of_) + VectorBytes(arc_offsets_) +
         VectorBytes(flags_);
}

}  // namespace roadnet
