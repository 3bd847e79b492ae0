#include "hiti/partition_overlay.h"

#include <algorithm>

#include "util/bytes.h"

namespace roadnet {

PartitionOverlayIndex::PartitionOverlayIndex(
    const Graph& g, const PartitionOverlayConfig& config)
    : graph_(g) {
  const uint32_t n = g.NumVertices();

  // Regions: dense ids over the non-empty cells of a coarse grid.
  CellGrid grid(g, config.region_resolution);
  std::vector<uint32_t> dense(grid.NumCells(), 0);
  num_regions_ = 0;
  for (uint32_t cell : grid.NonEmptyCells()) dense[cell] = num_regions_++;
  region_of_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    region_of_[v] = dense[grid.CellIndex(grid.CellOf(v))];
  }

  // Boundary vertices: adjacent to another region.
  is_boundary_.assign(n, false);
  std::vector<std::vector<VertexId>> region_boundary(num_regions_);
  for (VertexId v = 0; v < n; ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      if (region_of_[a.to] != region_of_[v]) {
        is_boundary_[v] = true;
        region_boundary[region_of_[v]].push_back(v);
        break;
      }
    }
  }

  // Boundary cliques: within-region shortest distances between boundary
  // vertices (HEPV/HiTi's precomputed component distances). Uses a local
  // context so preprocessing shares the query machinery.
  Context scratch(n);
  std::vector<std::vector<CliqueArc>> clique(n);
  for (uint32_t r = 0; r < num_regions_; ++r) {
    for (VertexId b : region_boundary[r]) {
      RestrictedSearch(&scratch, b, kInvalidVertex, r);
      const SearchState& from_b = scratch.restricted;
      for (VertexId other : region_boundary[r]) {
        if (other == b || !from_b.Reached(other)) continue;
        clique[b].push_back(
            CliqueArc{other, static_cast<Weight>(from_b.dist[other])});
      }
    }
  }
  clique_offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    clique_offsets_[v + 1] =
        clique_offsets_[v] + static_cast<uint32_t>(clique[v].size());
  }
  clique_arcs_.resize(clique_offsets_[n]);
  for (VertexId v = 0; v < n; ++v) {
    std::copy(clique[v].begin(), clique[v].end(),
              clique_arcs_.begin() + clique_offsets_[v]);
  }
}

std::unique_ptr<QueryContext> PartitionOverlayIndex::NewContext() const {
  return std::make_unique<Context>(graph_.NumVertices());
}

Distance PartitionOverlayIndex::RestrictedSearch(Context* ctx,
                                                 VertexId source,
                                                 VertexId target,
                                                 uint32_t region) const {
  SearchState& state = ctx->restricted;
  state.Start(source, 0);
  ctx->counters.HeapPush();
  while (!state.heap.Empty()) {
    const VertexId u = state.heap.PopMin();
    ctx->counters.HeapPop();
    if (u == target) break;
    const Distance du = state.dist[u];
    for (const Arc& a : graph_.Neighbors(u)) {
      if (region_of_[a.to] != region) continue;  // stay inside the region
      ctx->counters.RelaxEdge();
      if (state.Relax(u, a.to, du + a.weight)) ctx->counters.HeapPush();
    }
  }
  if (target == kInvalidVertex || !state.Reached(target)) return kInfDistance;
  return state.dist[target];
}

Distance PartitionOverlayIndex::Search(Context* ctx, VertexId s,
                                       VertexId t) const {
  const uint32_t rs = region_of_[s];
  const uint32_t rt = region_of_[t];
  SearchState& state = ctx->overlay;
  state.Start(s, 0);
  ctx->via_clique[s] = 0;
  ctx->counters.HeapPush();

  auto relax = [&](VertexId from, VertexId to, Weight w, bool clique) {
    ctx->counters.RelaxEdge();
    if (state.Relax(from, to, state.dist[from] + w)) {
      ctx->via_clique[to] = clique ? 1 : 0;
      ctx->counters.HeapPush();
    }
  };

  while (!state.heap.Empty()) {
    const VertexId u = state.heap.PopMin();
    ctx->counters.HeapPop();
    ctx->counters.Settle();
    if (u == t) return state.dist[t];
    const uint32_t ru = region_of_[u];
    if (ru == rs || ru == rt) {
      // Inside the source/target region: ordinary expansion.
      for (const Arc& a : graph_.Neighbors(u)) {
        relax(u, a.to, a.weight, /*clique=*/false);
      }
      // A boundary vertex of the source/target region may also shortcut
      // through its clique (harmless: clique weights are true distances).
      for (const CliqueArc& c : CliqueArcs(u)) {
        relax(u, c.to, c.weight, /*clique=*/true);
      }
    } else {
      // Foreign region: u is necessarily a boundary vertex. Traverse the
      // region through its clique and leave through crossing arcs.
      for (const CliqueArc& c : CliqueArcs(u)) {
        relax(u, c.to, c.weight, /*clique=*/true);
      }
      for (const Arc& a : graph_.Neighbors(u)) {
        if (region_of_[a.to] != ru) {
          relax(u, a.to, a.weight, /*clique=*/false);
        }
      }
    }
  }
  return kInfDistance;
}

Distance PartitionOverlayIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                              VertexId t) const {
  ctx->counters.Reset();
  if (s == t) return 0;
  return Search(static_cast<Context*>(ctx), s, t);
}

Path PartitionOverlayIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
                                      VertexId t) const {
  Context* ctx = static_cast<Context*>(raw_ctx);
  ctx->counters.Reset();
  ctx->path_distance = 0;
  if (s == t) return {s};
  ctx->path_distance = Search(ctx, s, t);
  if (ctx->path_distance == kInfDistance) return {};

  // Overlay path (may contain clique hops), t back to s.
  std::vector<std::pair<VertexId, bool>> overlay;  // (vertex, via clique)
  for (VertexId cur = t; cur != kInvalidVertex;
       cur = ctx->overlay.parent[cur]) {
    overlay.emplace_back(cur, ctx->via_clique[cur] != 0);
  }
  std::reverse(overlay.begin(), overlay.end());

  Path path{s};
  for (size_t i = 1; i < overlay.size(); ++i) {
    const VertexId from = overlay[i - 1].first;
    const auto [to, clique] = overlay[i];
    if (!clique) {
      path.push_back(to);
      continue;
    }
    // Unpack the clique hop with a restricted search inside the region.
    ctx->counters.ShortcutUnpacked();
    RestrictedSearch(ctx, from, to, region_of_[to]);
    const Path segment = ctx->restricted.PathTo(to);
    path.insert(path.end(), segment.begin() + 1, segment.end());
  }
  return path;
}

size_t PartitionOverlayIndex::IndexBytes() const {
  return VectorBytes(region_of_) + is_boundary_.capacity() / 8 +
         VectorBytes(clique_offsets_) + VectorBytes(clique_arcs_);
}

}  // namespace roadnet
