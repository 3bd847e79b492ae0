#ifndef ROADNET_ARCFLAGS_ARC_FLAGS_H_
#define ROADNET_ARCFLAGS_ARC_FLAGS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dijkstra/search.h"
#include "graph/graph.h"
#include "routing/path_index.h"
#include "tnr/cell_grid.h"

namespace roadnet {

// Tuning knobs of Arc Flags.
struct ArcFlagsConfig {
  // Partition the network into region_resolution^2 grid regions. Flag
  // storage is 2m * regions bits and preprocessing runs one backward SSSP
  // per region-boundary vertex, so the resolution stays small (the
  // classic studies use tens of regions).
  uint32_t region_resolution = 8;
};

// Arc Flags (Hilger et al. 2006) — the second grid-based technique of the
// paper's Appendix A ("a method similar to SILC in the sense that it also
// imposes a grid on the road network").
//
// Preprocessing partitions the vertices into grid regions and tags every
// directed arc (u, v) with one bit per region r: set iff the arc begins a
// shortest path from u to some vertex of r (equivalently, iff
// dist(v, b) + w(u, v) == dist(u, b) for some boundary vertex b of r, or
// both endpoints lie in r). A query runs Dijkstra that only relaxes arcs
// whose flag for the target's region is set — pruning everything that
// provably cannot lie on a shortest path into that region.
//
// Appendix A notes Arc Flags was previously shown inferior to CH in both
// space and query performance; bench_paper's App. A table compares them.
class ArcFlagsIndex : public PathIndex {
 public:
  ArcFlagsIndex(const Graph& g, const ArcFlagsConfig& config);
  explicit ArcFlagsIndex(const Graph& g)
      : ArcFlagsIndex(g, ArcFlagsConfig{}) {}

  std::string Name() const override { return "ArcFlags"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  uint32_t NumRegions() const { return num_regions_; }
  uint32_t RegionOf(VertexId v) const { return region_of_[v]; }

  // True if the arc at global CSR position `arc_index`
  // (Graph::FirstArcIndex(u) + i) may lie on a shortest path into
  // `region`: the query's arc filter.
  bool ArcFlag(size_t arc_index, uint32_t region) const {
    return (flags_[arc_index * words_per_arc_ + region / 64] >>
            (region % 64)) &
           1;
  }

 private:
  void SetFlag(size_t arc_index, uint32_t region) {
    flags_[arc_index * words_per_arc_ + region / 64] |=
        uint64_t{1} << (region % 64);
  }

  // Runs the flag-pruned Dijkstra toward t (GoalDirectedSearch under
  // ArcFlag); returns the distance and leaves the tree in the context.
  Distance Search(GoalDirectedContext* ctx, VertexId s, VertexId t) const;

  const Graph& graph_;
  uint32_t num_regions_ = 0;
  uint32_t words_per_arc_ = 0;
  std::vector<uint32_t> region_of_;  // per vertex
  std::vector<uint64_t> flags_;      // 2m * words_per_arc_
};

}  // namespace roadnet

#endif  // ROADNET_ARCFLAGS_ARC_FLAGS_H_
