#ifndef ROADNET_SILC_SILC_INDEX_H_
#define ROADNET_SILC_SILC_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "routing/path_index.h"
#include "silc/color_quadtree.h"

namespace roadnet {

// Spatially Induced Linkage Cognizance (Samet et al. 2008; paper
// Section 3.4, Appendix D).
//
// Preprocessing runs one full Dijkstra per source vertex v, labelling
// every other vertex with the neighbour of v that begins the shortest
// path (the "equivalence class" colouring), then compresses each
// colouring into quadtree blocks stored as Z-curve intervals. A shortest
// path query iteratively looks up the first hop toward t, O(log n) per
// hop; a distance query walks the same path and sums edge weights
// (Section 3.4: "SILC needs to first compute the shortest path and then
// return the sum of the lengths of the edges").
//
// The per-source colour maps make this an O(n * sqrt(n))-space,
// all-pairs-preprocessing technique — exactly the cost profile the paper
// measures against CH and TNR (Figures 6-11).
class SilcIndex : public PathIndex {
 public:
  explicit SilcIndex(const Graph& g);

  std::string Name() const override { return "SILC"; }
  // SILC queries are pure reads over the interval lists — no per-query
  // scratch — so the context is stateless and queries are naturally
  // concurrent.
  std::unique_ptr<QueryContext> NewContext() const override {
    return std::make_unique<QueryContext>();
  }
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  // First vertex after `from` on the shortest path from `from` to `to`
  // (kInvalidVertex if unreachable or from == to). O(log n).
  VertexId NextHop(VertexId from, VertexId to) const;

  // Total number of stored intervals (reporting: the O(n^1.5) growth).
  size_t NumIntervals() const { return intervals_.size(); }

 private:
  // NextHop's arc in from's adjacency (nullptr where NextHop gives
  // kInvalidVertex), so the walk reads each hop's weight with its target.
  const Arc* NextArc(VertexId from, VertexId to) const;

  // The path walk both queries share: returns dist(s, t) (kInfDistance if
  // unreachable) and, if `path` is non-null, appends every vertex after s
  // to it.
  Distance Walk(QueryContext* ctx, VertexId s, VertexId t, Path* path) const;

  std::span<const ColorInterval> IntervalsOf(VertexId v) const {
    return {intervals_.data() + interval_offsets_[v],
            interval_offsets_[v + 1] - interval_offsets_[v]};
  }

  const Graph& graph_;
  MortonSpace space_;

  // Per-source interval lists (CSR).
  std::vector<size_t> interval_offsets_;
  std::vector<ColorInterval> intervals_;

  // Per-source exception lists (CSR) for vertices that share a Morton
  // code but not a colour; each entry maps a vertex to its colour.
  struct Exception {
    VertexId vertex;
    uint32_t color;
  };
  std::vector<size_t> exception_offsets_;
  std::vector<Exception> exceptions_;
};

}  // namespace roadnet

#endif  // ROADNET_SILC_SILC_INDEX_H_
