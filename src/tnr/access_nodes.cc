#include "tnr/access_nodes.h"

#include <algorithm>
#include <unordered_set>

#include "dijkstra/dijkstra.h"

namespace roadnet {

namespace {

// Inner shell radius: boundary of the 5x5 square (cells at Chebyshev
// distance 2); outer shell radius: boundary of the 9x9 square (distance 4).
constexpr int32_t kInnerRadius = 2;
constexpr int32_t kOuterRadius = 4;

// Sorts and de-duplicates a vertex list.
void SortUnique(std::vector<VertexId>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// Collects vertices whose cell lies within Chebyshev radius `radius` of
// `center` (window-clipped at the grid border).
std::vector<VertexId> VerticesWithin(const CellGrid& grid,
                                     const CellCoord& center,
                                     int32_t radius) {
  std::vector<VertexId> out;
  const int32_t res = static_cast<int32_t>(grid.resolution());
  for (int32_t y = std::max(0, center.y - radius);
       y <= std::min(res - 1, center.y + radius); ++y) {
    for (int32_t x = std::max(0, center.x - radius);
         x <= std::min(res - 1, center.x + radius); ++x) {
      const auto& vs = grid.VerticesIn(grid.CellIndex(CellCoord{x, y}));
      out.insert(out.end(), vs.begin(), vs.end());
    }
  }
  return out;
}

// Endpoints of edges that cross the shell of radius `radius` around
// `center` under the exact sidedness test: one endpoint within the radius,
// the other beyond it.
std::vector<VertexId> CrossingEndpoints(const Graph& g, const CellGrid& grid,
                                        const CellCoord& center,
                                        int32_t radius) {
  std::vector<VertexId> out;
  for (VertexId v : VerticesWithin(grid, center, radius)) {
    for (const Arc& a : g.Neighbors(v)) {
      if (CellChebyshev(grid.CellOf(a.to), center) > radius) {
        out.push_back(v);
        out.push_back(a.to);
      }
    }
  }
  SortUnique(&out);
  return out;
}

// Flawed enumeration (Appendix B model): like CrossingEndpoints, but only
// edges between same-or-adjacent cells are ever inspected, so an edge that
// jumps the shell ring is invisible.
std::vector<VertexId> CrossingEndpointsAdjacentOnly(const Graph& g,
                                                    const CellGrid& grid,
                                                    const CellCoord& center,
                                                    int32_t radius) {
  std::vector<VertexId> out;
  for (VertexId v : VerticesWithin(grid, center, radius)) {
    const CellCoord cv = grid.CellOf(v);
    for (const Arc& a : g.Neighbors(v)) {
      const CellCoord cu = grid.CellOf(a.to);
      if (CellChebyshev(cv, cu) <= 1 &&
          CellChebyshev(cu, center) > radius) {
        out.push_back(v);
        out.push_back(a.to);
      }
    }
  }
  SortUnique(&out);
  return out;
}

// Ensures every vertex of the cell carries a distance to every access node
// of the cell (the paper's I2 is complete per cell), filling gaps with CH
// distance queries run on `ch_ctx`.
void CompleteCellDistances(const std::vector<VertexId>& cell_vertices,
                           const std::vector<VertexId>& cell_access,
                           const ChIndex* ch, QueryContext* ch_ctx,
                           AccessNodeSet* result) {
  for (VertexId v : cell_vertices) {
    auto& list = result->vertex_access[v];
    std::sort(list.begin(), list.end(),
              [](const VertexAccess& a, const VertexAccess& b) {
                return a.node < b.node;
              });
    list.erase(std::unique(list.begin(), list.end(),
                           [](const VertexAccess& a, const VertexAccess& b) {
                             return a.node == b.node;
                           }),
               list.end());
    if (list.size() == cell_access.size()) continue;
    // Search only the pre-append prefix: the tail being built is unsorted.
    const size_t sorted_prefix = list.size();
    for (VertexId a : cell_access) {
      bool present = std::binary_search(
          list.begin(), list.begin() + sorted_prefix, VertexAccess{a, 0},
          [](const VertexAccess& x, const VertexAccess& y) {
            return x.node < y.node;
          });
      if (!present) {
        list.push_back(VertexAccess{a, ch->DistanceQuery(ch_ctx, v, a)});
      }
    }
    std::sort(list.begin(), list.end(),
              [](const VertexAccess& a, const VertexAccess& b) {
                return a.node < b.node;
              });
  }
}

}  // namespace

AccessNodeSet ComputeAccessNodes(const Graph& g, const CellGrid& grid,
                                 const ChIndex* ch) {
  AccessNodeSet result;
  result.vertex_access.resize(g.NumVertices());
  result.cell_access.resize(grid.NumCells());

  Dijkstra dijkstra(g);
  const auto ch_ctx = ch->NewContext();
  std::vector<VertexId> path_scratch;

  for (uint32_t cell : grid.NonEmptyCells()) {
    const std::vector<VertexId>& cell_vertices = grid.VerticesIn(cell);
    const CellCoord center = grid.CellOf(cell_vertices.front());

    const std::vector<VertexId> vout =
        CrossingEndpoints(g, grid, center, kOuterRadius);
    if (vout.empty()) continue;  // nothing lies beyond the outer shell

    std::vector<VertexId>& access = result.cell_access[cell];
    for (VertexId v : cell_vertices) {
      dijkstra.RunUntilSettled(v, vout);
      for (VertexId u : vout) {
        if (!dijkstra.Settled(u)) continue;
        // Walk the parent chain u -> v, then scan from the v side for the
        // first edge crossing the inner shell; its INSIDE endpoint is the
        // access node covering this exit. The inside choice matters for
        // Equation 1's exactness: when two query cells are only 5 apart,
        // one edge can cross both cells' inner shells at once, and inside
        // endpoints keep a_s before a_t along the path (outside endpoints
        // would cross over and inflate the sum by twice the edge weight).
        path_scratch.clear();
        for (VertexId cur = u; cur != kInvalidVertex;
             cur = dijkstra.ParentOf(cur)) {
          path_scratch.push_back(cur);
        }
        // path_scratch = u .. v; scan from the back (v side).
        for (size_t i = path_scratch.size(); i-- > 1;) {
          const VertexId inside = path_scratch[i];
          const VertexId outside = path_scratch[i - 1];
          if (CellChebyshev(grid.CellOf(inside), center) <= kInnerRadius &&
              CellChebyshev(grid.CellOf(outside), center) > kInnerRadius) {
            result.vertex_access[v].push_back(
                VertexAccess{inside, dijkstra.DistanceTo(inside)});
            access.push_back(inside);
            break;
          }
        }
      }
    }
    SortUnique(&access);
    CompleteCellDistances(cell_vertices, access, ch, ch_ctx.get(), &result);
  }
  return result;
}

AccessNodeSet ComputeAccessNodesFlawed(const Graph& g, const CellGrid& grid,
                                       const ChIndex* ch) {
  AccessNodeSet result;
  result.vertex_access.resize(g.NumVertices());
  result.cell_access.resize(grid.NumCells());

  Dijkstra dijkstra(g);
  const auto ch_ctx = ch->NewContext();

  for (uint32_t cell : grid.NonEmptyCells()) {
    const std::vector<VertexId>& cell_vertices = grid.VerticesIn(cell);
    const CellCoord center = grid.CellOf(cell_vertices.front());

    const std::vector<VertexId> sin =
        CrossingEndpointsAdjacentOnly(g, grid, center, kInnerRadius);
    const std::vector<VertexId> sup =
        CrossingEndpointsAdjacentOnly(g, grid, center, kOuterRadius);
    if (sin.empty() || sup.empty()) continue;

    // dist[j][i] = dist(sin[j], cell_vertices[i]); dist_sup[j][k] likewise.
    std::vector<std::vector<Distance>> dist_in(sin.size());
    std::vector<std::vector<Distance>> dist_up(sin.size());
    std::vector<VertexId> targets = cell_vertices;
    targets.insert(targets.end(), sup.begin(), sup.end());
    for (size_t j = 0; j < sin.size(); ++j) {
      dijkstra.RunUntilSettled(sin[j], targets);
      dist_in[j].reserve(cell_vertices.size());
      for (VertexId vi : cell_vertices) {
        dist_in[j].push_back(dijkstra.DistanceTo(vi));
      }
      dist_up[j].reserve(sup.size());
      for (VertexId vk : sup) dist_up[j].push_back(dijkstra.DistanceTo(vk));
    }

    // Bast et al.'s claim: vj is an access node iff it minimizes
    // dist(vi, vj) + dist(vj, vk) for some pair (vi, vk).
    std::vector<VertexId>& access = result.cell_access[cell];
    for (size_t i = 0; i < cell_vertices.size(); ++i) {
      for (size_t k = 0; k < sup.size(); ++k) {
        size_t best = sin.size();
        Distance best_dist = kInfDistance;
        for (size_t j = 0; j < sin.size(); ++j) {
          if (dist_in[j][i] == kInfDistance || dist_up[j][k] == kInfDistance)
            continue;
          const Distance total = dist_in[j][i] + dist_up[j][k];
          if (total < best_dist) {
            best_dist = total;
            best = j;
          }
        }
        if (best < sin.size()) {
          result.vertex_access[cell_vertices[i]].push_back(
              VertexAccess{sin[best], dist_in[best][i]});
          access.push_back(sin[best]);
        }
      }
    }
    SortUnique(&access);
    CompleteCellDistances(cell_vertices, access, ch, ch_ctx.get(), &result);
  }
  return result;
}

}  // namespace roadnet
