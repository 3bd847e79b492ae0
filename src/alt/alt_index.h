#ifndef ROADNET_ALT_ALT_INDEX_H_
#define ROADNET_ALT_ALT_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dijkstra/search.h"
#include "graph/graph.h"
#include "routing/path_index.h"

namespace roadnet {

// Tuning knobs of ALT.
struct AltConfig {
  // Landmarks to select (the classic studies use 8-16 on road networks).
  uint32_t num_landmarks = 12;

  // Seed for the initial farthest-point selection pick.
  uint64_t seed = 1;
};

// ALT (Goldberg & Harrelson 2005) — the representative of the paper's
// Appendix A "additional related work": A* search with lower bounds from
// landmark distances and the triangle inequality.
//
// Preprocessing selects k landmarks by farthest-point traversal and
// stores dist(L, v) for every landmark L and vertex v (O(k*n) space,
// k full Dijkstras). A query runs A* with the admissible, consistent
// potential
//   pi_t(v) = max over L of |dist(L, t) - dist(L, v)|,
// which steers the search toward t. The paper excludes ALT from its main
// comparison because prior work showed it inferior to CH in both space
// and query time; bench_paper's Appendix A table compares the two on
// the synthetic datasets.
class AltIndex : public PathIndex {
 public:
  AltIndex(const Graph& g, const AltConfig& config);
  explicit AltIndex(const Graph& g) : AltIndex(g, AltConfig{}) {}

  std::string Name() const override { return "ALT"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  const std::vector<VertexId>& Landmarks() const { return landmarks_; }

  // The A* potential: a lower bound on dist(v, t). Exposed for the
  // admissibility property tests.
  Distance LowerBound(VertexId v, VertexId t) const;

 private:
  // dist(landmarks_[i], v) at landmark_dist_[i * n + v].
  Distance LandmarkDistance(uint32_t i, VertexId v) const {
    return landmark_dist_[static_cast<size_t>(i) * graph_.NumVertices() + v];
  }

  // Runs the A* search (GoalDirectedSearch under LowerBound); returns
  // dist (kInfDistance if unreachable) and leaves the tree in the context.
  Distance Search(GoalDirectedContext* ctx, VertexId s, VertexId t) const;

  const Graph& graph_;
  std::vector<VertexId> landmarks_;
  std::vector<Distance> landmark_dist_;  // k x n row-major
};

}  // namespace roadnet

#endif  // ROADNET_ALT_ALT_INDEX_H_
