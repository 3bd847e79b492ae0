#ifndef ROADNET_PCPD_REDUNDANCY_H_
#define ROADNET_PCPD_REDUNDANCY_H_

#include <cstdint>
#include <vector>

#include "dijkstra/dijkstra.h"
#include "dijkstra/search.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace roadnet {

// Appendix C: PCPD's O(n) space bound assumes every shortest path is
// delta-redundant — any core-disjoint path P' (sharing no interior vertex
// with the shortest path P) is at least delta times longer. Table 2 shows
// the observed minimum of length(P')/length(P) is ~1 on every dataset,
// which explains PCPD's space blow-up.
//
// Measures length(P')/length(P) for one query: P is the shortest path
// from s to t, P' the shortest path avoiding every interior vertex of P.
// Returns +infinity when no core-disjoint path exists, and 1.0 when the
// "shortest path" is a single edge matched by a parallel route of equal
// length... i.e. the ratio is always >= 1 for finite results.
class RedundancyMeter {
 public:
  explicit RedundancyMeter(const Graph& g);

  // Ratio for the pair (s, t); +infinity (HUGE_VAL) if either t is
  // unreachable or no core-disjoint path exists.
  double Ratio(VertexId s, VertexId t);

 private:
  const Graph& graph_;
  Dijkstra dijkstra_;
  // Marks the interior vertices of the current P; cleared after each
  // ratio.
  std::vector<uint8_t> forbidden_;
  // Dijkstra restricted to non-forbidden vertices.
  SearchState search_;
};

}  // namespace roadnet

#endif  // ROADNET_PCPD_REDUNDANCY_H_
