#include "pcpd/redundancy.h"

#include <cmath>

#include "routing/path.h"

namespace roadnet {

RedundancyMeter::RedundancyMeter(const Graph& g)
    : graph_(g),
      dijkstra_(g),
      forbidden_(g.NumVertices(), 0),
      search_(g.NumVertices()) {}

double RedundancyMeter::Ratio(VertexId s, VertexId t) {
  if (s == t) return HUGE_VAL;
  const Distance d = dijkstra_.Run(s, t);
  if (d == kInfDistance) return HUGE_VAL;
  const Path p = dijkstra_.PathTo(t);

  // Forbid the interior vertices of P (a core-disjoint path shares no
  // vertex with P except, necessarily, the endpoints).
  for (size_t i = 1; i + 1 < p.size(); ++i) forbidden_[p[i]] = 1;

  // Dijkstra on G minus the forbidden vertices.
  Distance detour = kInfDistance;
  search_.Start(s, 0);
  while (!search_.heap.Empty()) {
    const VertexId u = search_.heap.PopMin();
    if (u == t) {
      detour = search_.dist[t];
      break;
    }
    const Distance du = search_.dist[u];
    for (const Arc& a : graph_.Neighbors(u)) {
      if (!forbidden_[a.to]) search_.Relax(u, a.to, du + a.weight);
    }
  }

  for (size_t i = 1; i + 1 < p.size(); ++i) forbidden_[p[i]] = 0;
  if (detour == kInfDistance) return HUGE_VAL;
  return static_cast<double>(detour) / static_cast<double>(d);
}

}  // namespace roadnet
