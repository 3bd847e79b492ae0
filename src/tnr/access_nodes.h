#ifndef ROADNET_TNR_ACCESS_NODES_H_
#define ROADNET_TNR_ACCESS_NODES_H_

#include <vector>

#include "ch/ch_index.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "tnr/cell_grid.h"

namespace roadnet {

// One access node of a vertex's cell, with the exact distance from the
// vertex (the paper's I2 information).
struct VertexAccess {
  VertexId node;
  Distance dist;
};

// Output of access-node computation for a whole grid.
struct AccessNodeSet {
  // vertex_access[v] = all access nodes of v's cell, with dist(v, node).
  std::vector<std::vector<VertexAccess>> vertex_access;
  // cell_access[cell_index] = the access-node vertex set of that cell.
  std::vector<std::vector<VertexId>> cell_access;
};

// Correct access-node computation (Section 3.3 "Remarks", i.e. the
// authors' fix for the Appendix-B defect): for every vertex v in a cell C,
// compute the shortest paths from v to the endpoints of every edge that
// crosses C's outer shell, and on each path select the first vertex past
// the inner shell as an access node. Edge-crossing tests use cell
// sidedness (one endpoint within Chebyshev radius r of C, the other
// beyond), which is exact even for edges spanning many cells.
//
// `ch` accelerates distance fill-ins (every vertex needs a distance to
// every access node of its cell, even ones discovered via other vertices).
AccessNodeSet ComputeAccessNodes(const Graph& g, const CellGrid& grid,
                                 const ChIndex* ch);

// The flawed Bast et al. preprocessing the paper dissects in Appendix B.
// It derives candidate sets Sin (inner-shell edges) and Sup (outer-shell
// edges) by enumerating edges between same-or-adjacent cells only — the
// mechanical reading of a per-boundary-segment enumeration — and keeps a
// vertex of Sin as an access node only if it minimizes
// dist(vi, vj) + dist(vj, vk) for some vi in C, vk in Sup. Long edges that
// jump a shell ring are missed entirely, and Sin vertices that serve
// exits not on any C-to-Sup shortest path are dropped: both lose access
// nodes and yield incorrect query answers, which the defect bench
// demonstrates.
AccessNodeSet ComputeAccessNodesFlawed(const Graph& g, const CellGrid& grid,
                                       const ChIndex* ch);

}  // namespace roadnet

#endif  // ROADNET_TNR_ACCESS_NODES_H_
