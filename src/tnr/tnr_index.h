#ifndef ROADNET_TNR_TNR_INDEX_H_
#define ROADNET_TNR_TNR_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "graph/graph.h"
#include "routing/path_index.h"
#include "tnr/access_nodes.h"
#include "tnr/cell_grid.h"

namespace roadnet {

// Which technique handles the queries TNR's locality filter rejects
// (Section 4.1 / Appendix E.1 evaluate both).
enum class TnrFallback {
  kCh,
  kBidirectionalDijkstra,
};

// Tuning knobs of Transit Node Routing.
// Grid resolution that keeps vertices-per-cell in the regime the paper's
// 128x128 grid produced on the DIMACS inputs (see DESIGN.md).
uint32_t DefaultGridResolution(uint32_t num_vertices);

struct TnrConfig {
  // Grid resolution (the paper's 128x128 / 256x256 sweep; defaults scale
  // to the synthetic dataset sizes, see DESIGN.md).
  uint32_t grid_resolution = 32;

  // Adds a second level with twice the resolution and a sparse access-node
  // distance table restricted to nearby cell pairs (the paper's "hybrid
  // grid", Appendix E.1).
  bool hybrid = false;

  TnrFallback fallback = TnrFallback::kCh;

  // Uses the flawed Bast et al. access-node computation instead of the
  // corrected one — intentionally incorrect, for the Appendix-B defect
  // demonstration.
  bool flawed_access_nodes = false;
};

// Query-routing counters, for the locality-filter ablation bench. They
// accumulate over every query run on one context.
struct TnrStats {
  size_t coarse_table_answered = 0;
  size_t fine_table_answered = 0;
  size_t fallback_answered = 0;
};

// Transit Node Routing (Bast et al. 2006/2007; paper Section 3.3,
// Appendices B and E.1), grid-based, with the paper's corrected
// access-node computation.
//
// Preprocessing: impose a grid; per cell compute access nodes (vertices
// covering every shortest path from inside the cell to beyond its 9x9
// outer shell) with exact per-vertex distances (I2), plus the pairwise
// distance table over all access nodes (I1). Distance queries between
// cells that lie beyond each other's outer shells reduce to
//   min over (a_s, a_t) of  d(s,a_s) + table(a_s,a_t) + d(a_t,t)
// (Equation 1); everything closer falls back to CH or bidirectional
// Dijkstra. Shortest path queries walk greedily neighbour-by-neighbour
// using distance queries (O(k) table probes), splicing the fallback for
// the final stretch near t.
class TnrIndex : public PathIndex {
 public:
  // `ch` accelerates preprocessing and serves as the fallback when
  // config.fallback == kCh; it must outlive the index.
  TnrIndex(const Graph& g, const ChIndex* ch, const TnrConfig& config);

  std::string Name() const override { return "TNR"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  // True if the coarse locality filter lets the table answer (s, t).
  bool TableApplicable(VertexId s, VertexId t) const;

  // Routing counters of every query run on `ctx` (a context of this
  // index) since NewContext() created it.
  TnrStats RoutingStats(const QueryContext* ctx) const;

  // Distinct access nodes of the coarse level (reporting).
  size_t NumAccessNodes() const { return coarse_.access_vertices.size(); }

  // Access-node vertex set of the cell containing v (testing).
  std::span<const VertexId> CellAccessNodes(VertexId v) const;

 private:
  // TNR itself needs no scratch — queries are table probes — but every
  // fallback-routed query needs the fallback technique's scratch, so the
  // context wraps one fallback context plus the routing counters.
  struct Context : QueryContext {
    TnrStats stats;
    std::unique_ptr<QueryContext> fallback;
  };

  // Per-vertex I2 entry: index into the level's access_vertices plus the
  // exact distance.
  struct I2Entry {
    uint32_t access_index;
    Distance dist;
  };

  // One grid level (the coarse level always exists; the fine level only
  // under config.hybrid).
  struct Level {
    explicit Level(const Graph& g, uint32_t resolution)
        : grid(g, resolution) {}

    CellGrid grid;
    std::vector<VertexId> access_vertices;       // global dedup
    std::vector<uint32_t> vertex_offsets;        // CSR over I2 entries
    std::vector<I2Entry> i2;
    std::vector<std::vector<VertexId>> cell_access;  // per cell, vertex ids

    std::span<const I2Entry> AccessOf(VertexId v) const {
      return {i2.data() + vertex_offsets[v],
              vertex_offsets[v + 1] - vertex_offsets[v]};
    }
  };

  // Populates level->access_vertices / vertex_offsets / i2 from raw
  // per-vertex access lists.
  static void BuildLevelIndex(const Graph& g, AccessNodeSet&& raw,
                              Level* level);

  // Equation 1 on the coarse level. Requires TableApplicable. Counts one
  // table_lookups per I1 cell probed into *counters.
  Distance CoarseDistance(VertexId s, VertexId t,
                          QueryCounters* counters) const;

  // Equation 1 on the fine level's sparse table. Sets *answered = false if
  // the filter or the sparse table cannot handle the pair.
  Distance FineDistance(VertexId s, VertexId t, bool* answered,
                        QueryCounters* counters) const;

  Distance RoutedDistance(Context* ctx, VertexId s, VertexId t) const;

  static uint64_t PairKey(uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  }

  const Graph& graph_;
  const ChIndex* ch_;
  TnrConfig config_;

  Level coarse_;
  // |A| x |A| row-major; 32-bit entries (kNoEntry for unreachable) halve
  // the footprint of TNR's dominant structure.
  static constexpr uint32_t kNoEntry = 0xffffffffu;
  std::vector<uint32_t> coarse_table_;

  std::unique_ptr<Level> fine_;
  std::unordered_map<uint64_t, Distance> fine_table_;

  std::unique_ptr<BidirectionalDijkstra> bidi_fallback_;
  const PathIndex* fallback_ = nullptr;
};

}  // namespace roadnet

#endif  // ROADNET_TNR_TNR_INDEX_H_
