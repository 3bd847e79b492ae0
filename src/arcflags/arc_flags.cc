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
}

std::unique_ptr<QueryContext> ArcFlagsIndex::NewContext() const {
  return std::make_unique<GoalDirectedContext>(graph_.NumVertices());
}

Distance ArcFlagsIndex::Search(GoalDirectedContext* ctx, VertexId s,
                               VertexId t) const {
  const uint32_t target_region = region_of_[t];
  auto flagged = [&](size_t arc) { return ArcFlag(arc, target_region); };
  return GoalDirectedSearch(graph_, ctx, s, t, flagged, ZeroPotential{});
}

Distance ArcFlagsIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                      VertexId t) const {
  return Search(static_cast<GoalDirectedContext*>(ctx), s, t);
}

Path ArcFlagsIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
                              VertexId t) const {
  auto* ctx = static_cast<GoalDirectedContext*>(raw_ctx);
  ctx->path_distance = Search(ctx, s, t);
  if (ctx->path_distance == kInfDistance) return {};
  return s == t ? Path{s} : ctx->search.PathTo(t);
}

size_t ArcFlagsIndex::IndexBytes() const {
  return VectorBytes(region_of_) + VectorBytes(flags_);
}

}  // namespace roadnet
