#ifndef ROADNET_PCPD_APPROX_ORACLE_H_
#define ROADNET_PCPD_APPROX_ORACLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "pcpd/block_pairs.h"

namespace roadnet {

// Approximate distance oracle in the style of Sankaranarayanan & Samet's
// revised PCPD (the paper's Appendix A: "a revised version of PCPD that
// can handle approximate distance queries efficiently").
//
// Preprocessing recursively refines pairs of quadtree blocks (X, Y) —
// the same synchronized 16-way refinement PCPD uses — but the acceptance
// criterion is metric instead of path-coherence: a pair is kept once
//   max dist(x, y) <= (1 + epsilon) * min dist(x, y)
// over all x in X, y in Y, and it stores the midpoint of that range. A
// query descends to the unique covering pair (one hash probe per level,
// O(log n)) and returns the stored value, which is within a factor
// (1 +/- epsilon) of the true distance — the bound the tests enforce.
//
// Like PCPD itself, preprocessing needs all-pairs distances, so the
// oracle targets the same small-network regime (Section 4.3's cutoff).
class ApproxDistanceOracle {
 public:
  // epsilon > 0: maximum relative error of any answer.
  ApproxDistanceOracle(const Graph& g, double epsilon);

  // Approximate dist(s, t): exact 0 for s == t, kInfDistance when
  // unreachable, otherwise within (1 +/- epsilon) of the truth.
  Distance Query(VertexId s, VertexId t) const;

  double epsilon() const { return epsilon_; }
  size_t NumPairs() const { return pairs_.size(); }
  size_t IndexBytes() const;

 private:
  // Exact distance from the preprocessing matrix (build time only).
  Distance MatrixDistance(VertexId s, VertexId t) const;

  void Refine(uint64_t base_x, uint64_t base_y, uint32_t level);

  const Graph& graph_;
  double epsilon_;
  std::vector<uint64_t> code_of_;
  std::vector<VertexId> sorted_;
  std::vector<uint64_t> sorted_codes_;
  uint32_t root_level_ = 0;

  // Build-time all-pairs matrix (32-bit, 0xffffffff = unreachable);
  // freed after refinement.
  std::vector<uint32_t> matrix_;

  std::unordered_map<pcpd::PairKey, Distance, pcpd::PairKeyHash> pairs_;
};

}  // namespace roadnet

#endif  // ROADNET_PCPD_APPROX_ORACLE_H_
