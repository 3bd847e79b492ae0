#ifndef ROADNET_PCPD_PCPD_INDEX_H_
#define ROADNET_PCPD_PCPD_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "pcpd/block_pairs.h"
#include "routing/path_index.h"

namespace roadnet {

// Path-Coherent Pairs Decomposition (Sankaranarayanan et al. 2009; paper
// Section 3.5, Appendices C and D).
//
// Preprocessing recursively refines pairs of square regions, starting from
// (whole space, whole space): a pair (X, Y) becomes a path-coherent pair
// (X, Y, psi) if every shortest path from a vertex in X to a vertex in Y
// passes through the common object psi (a vertex or a directed edge);
// otherwise X and Y are each split into their four quadrants and the 16
// sub-pairs are refined recursively (Appendix D). The common-object test
// is the paper's nested loop over VX x VY that intersects the running
// shared set and stops early once it empties.
//
// A query finds the unique covering pair by synchronized quadtree descent
// (one hash probe per level, O(log n)), then decomposes the path through
// psi recursively — O(k) lookups for a k-vertex path. Distance queries
// walk the path and sum weights, exactly as the paper prescribes.
//
// Square regions are aligned Morton-code ranges over internally scaled
// coordinates (x16, with co-located vertices nudged apart inside the
// scaled cell so every vertex owns a unique code).
class PcpdIndex : public PathIndex {
 public:
  explicit PcpdIndex(const Graph& g);

  std::string Name() const override { return "PCPD"; }
  // PCPD queries are pure reads over the pair map — no per-query scratch
  // — so the context is stateless and queries are naturally concurrent.
  std::unique_ptr<QueryContext> NewContext() const override {
    return std::make_unique<QueryContext>();
  }
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  // Number of stored path-coherent pairs |Spcp| (Appendix C's growth
  // measurements).
  size_t NumPairs() const { return pcp_.size(); }

 private:
  // The common object of a path-coherent pair. A vertex is encoded as
  // a == b; a directed edge (tail, head) points from the X side toward
  // the Y side.
  struct Psi {
    VertexId a;
    VertexId b;
    bool IsEdge() const { return a != b; }
  };

  // Recursive refinement of one pair of same-level blocks.
  void Refine(uint64_t base_x, uint64_t base_y, uint32_t level);

  // Nested-loop coherence test; returns true and sets *psi when the pair
  // is path-coherent.
  bool FindCommonObject(const pcpd::BlockRange& rx,
                        const pcpd::BlockRange& ry, uint64_t base_x,
                        uint64_t base_y, uint32_t level, Psi* psi) const;

  // Walks the canonical shortest path s -> t via the first-hop matrix.
  void WalkPath(VertexId s, VertexId t, std::vector<VertexId>* out) const;

  // Finds the covering PCP of (s, t) by synchronized descent, counting
  // one tree_lookups per level probed into *counters.
  const Psi& FindPair(VertexId s, VertexId t, QueryCounters* counters) const;

  // Appends the vertices after `s` up to and including `t` to *out.
  void AppendPath(VertexId s, VertexId t, Path* out,
                  QueryCounters* counters) const;

  bool CodeInBlock(uint64_t code, uint64_t base, uint32_t level) const {
    return base <= code && code - base < (uint64_t{1} << (2 * level));
  }

  const Graph& graph_;
  std::vector<uint64_t> code_of_;      // unique per vertex
  std::vector<VertexId> sorted_;       // vertex ids by code
  std::vector<uint64_t> sorted_codes_;
  uint32_t root_level_ = 0;

  // first_hop_[s * n + t] = adjacency index (within Neighbors(s)) of the
  // first hop of the canonical shortest path s -> t. Built during
  // preprocessing, retained for nothing else; freed after construction.
  std::vector<uint8_t> first_hop_;

  std::unordered_map<pcpd::PairKey, Psi, pcpd::PairKeyHash> pcp_;
};

}  // namespace roadnet

#endif  // ROADNET_PCPD_PCPD_INDEX_H_
