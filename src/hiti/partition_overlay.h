#ifndef ROADNET_HITI_PARTITION_OVERLAY_H_
#define ROADNET_HITI_PARTITION_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dijkstra/search.h"
#include "graph/graph.h"
#include "routing/path_index.h"
#include "tnr/cell_grid.h"

namespace roadnet {

// Tuning knobs of the partition overlay.
struct PartitionOverlayConfig {
  // Grid partition resolution (regions = non-empty cells). Small values
  // give big regions with few boundary vertices; the classic papers use
  // tens of components.
  uint32_t region_resolution = 8;
};

// HiTi/HEPV-style partition overlay (Jung & Pramanik 2002, Jing et al.
// 1998 — the paper's Appendix A): partition the network into
// vertex-disjoint regions, precompute the pairwise distances between each
// region's boundary vertices, and answer queries with a Dijkstra that
// traverses foreign regions through those boundary cliques instead of
// their interiors.
//
// The original HiTi assumes Euclidean edge weights, which is exactly why
// the paper excludes it from the main comparison ("HiTi cannot handle the
// datasets used in our experiments, since ... the weight of each edge
// represents the time required to traverse the edge"). This
// implementation generalizes the idea to arbitrary positive weights —
// boundary-to-boundary distances are computed inside each region with a
// restricted Dijkstra rather than assumed from geometry — so it can be
// benchmarked alongside the other Appendix A techniques.
//
// Query: vertices inside the source or target region relax their original
// arcs; every other reachable vertex is a boundary vertex and relaxes its
// region's clique arcs plus the original arcs that cross regions. Path
// queries unpack clique arcs with an on-demand restricted Dijkstra inside
// the region.
class PartitionOverlayIndex : public PathIndex {
 public:
  PartitionOverlayIndex(const Graph& g,
                        const PartitionOverlayConfig& config);
  explicit PartitionOverlayIndex(const Graph& g)
      : PartitionOverlayIndex(g, PartitionOverlayConfig{}) {}

  std::string Name() const override { return "HiTi"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  uint32_t NumRegions() const { return num_regions_; }
  uint32_t RegionOf(VertexId v) const { return region_of_[v]; }
  bool IsBoundary(VertexId v) const { return is_boundary_[v]; }

 private:
  // Clique arc: within-region shortest distance between two boundary
  // vertices of the same region.
  struct CliqueArc {
    VertexId to;
    Weight weight;
  };

  struct Context : QueryContext {
    explicit Context(uint32_t n)
        : overlay(n), via_clique(n, 0), restricted(n) {}

    // The overlay query search, and per vertex whether its tree arc is a
    // clique arc (so paths can be unpacked).
    SearchState overlay;
    std::vector<uint8_t> via_clique;
    // Region-restricted searches: clique construction and clique-arc
    // unpacking during path queries.
    SearchState restricted;
  };

  std::span<const CliqueArc> CliqueArcs(VertexId v) const {
    return {clique_arcs_.data() + clique_offsets_[v],
            clique_offsets_[v + 1] - clique_offsets_[v]};
  }

  // Dijkstra restricted to one region, on ctx->restricted; returns the
  // distance to `target` (kInfDistance if not reachable inside the
  // region).
  Distance RestrictedSearch(Context* ctx, VertexId source, VertexId target,
                            uint32_t region) const;

  // The overlay query search. Parent entries tag arcs that were clique
  // arcs so paths can be unpacked.
  Distance Search(Context* ctx, VertexId s, VertexId t) const;

  const Graph& graph_;
  uint32_t num_regions_ = 0;
  std::vector<uint32_t> region_of_;
  std::vector<bool> is_boundary_;
  std::vector<uint32_t> clique_offsets_;  // per vertex (CSR)
  std::vector<CliqueArc> clique_arcs_;
};

}  // namespace roadnet

#endif  // ROADNET_HITI_PARTITION_OVERLAY_H_
