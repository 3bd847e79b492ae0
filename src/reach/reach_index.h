#ifndef ROADNET_REACH_REACH_INDEX_H_
#define ROADNET_REACH_REACH_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "routing/path_index.h"

namespace roadnet {

// RE / reach-based pruning (Goldberg, Kaplan, Werneck 2006) — the third
// technique of the paper's Appendix A. The reach of a vertex v is
//   reach(v) = max over shortest paths P(s, t) containing v of
//              min(dist(s, v), dist(v, t)),
// i.e. how deep inside long shortest paths v can sit. Appendix A: "given
// any two vertices s and t, if the reach of v is smaller than both
// dist(s, v) and dist(v, t), then v cannot be on the shortest path from s
// to t" — which plugs straight into bidirectional Dijkstra as a pruning
// rule: queries run BidirectionalSearch (search.h) with the reach test as
// its per-settle prune.
//
// Preprocessing here computes EXACT reaches with one SSSP per source: for
// a fixed source s, every vertex's contribution is min(dist(s, v),
// height(v)), where height(v) is the longest tight-edge continuation
// below v in the shortest-path DAG (not just the tree, so tied shortest
// paths are covered and pruning never cuts an optimal route). O(n * m)
// overall — practical for the datasets the Appendix A bench uses, and
// exactly the semantics the inexact upper-bound schemes approximate.
class ReachIndex : public PathIndex {
 public:
  explicit ReachIndex(const Graph& g);

  std::string Name() const override { return "RE"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  Distance ReachOf(VertexId v) const { return reach_[v]; }

 private:
  const Graph& graph_;
  std::vector<Distance> reach_;
};

}  // namespace roadnet

#endif  // ROADNET_REACH_REACH_INDEX_H_
