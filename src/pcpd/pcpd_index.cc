#include "pcpd/pcpd_index.h"

#include <algorithm>
#include <cassert>

#include "dijkstra/dijkstra.h"
#include "spatial/unique_morton.h"
#include "util/bytes.h"

namespace roadnet {

using pcpd::BlockId;
using pcpd::BlockRange;
using pcpd::FindBlockRange;
using pcpd::PairKey;

namespace {

constexpr uint8_t kNoHop = 0xff;

// Sorted-vector intersection in place: *a keeps only elements also in b.
template <typename T>
void IntersectSorted(std::vector<T>* a, const std::vector<T>& b) {
  auto out = a->begin();
  auto ia = a->cbegin();
  auto ib = b.cbegin();
  while (ia != a->cend() && ib != b.cend()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      *out++ = *ia++;
      ++ib;
    }
  }
  a->erase(out, a->end());
}

uint64_t DirectedEdgeKey(VertexId u, VertexId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

PcpdIndex::PcpdIndex(const Graph& g) : graph_(g) {
  const uint32_t n = g.NumVertices();

  // --- Unique Morton codes (scaled x16, co-located vertices nudged). ---
  root_level_ = BuildUniqueMortonCodes(g, &code_of_, &sorted_, &sorted_codes_);

  // --- Canonical all-pairs first hops (one Dijkstra per source). ---
  first_hop_.assign(static_cast<size_t>(n) * n, kNoHop);
  Dijkstra dijkstra(g);
  for (VertexId s = 0; s < n; ++s) {
    dijkstra.RunAllWithFirstHop(s);
    auto neighbors = g.Neighbors(s);
    uint8_t* row = first_hop_.data() + static_cast<size_t>(s) * n;
    for (VertexId t = 0; t < n; ++t) {
      if (t == s) continue;
      const VertexId hop = dijkstra.FirstHopOf(t);
      if (hop == kInvalidVertex) continue;
      const auto it = std::lower_bound(
          neighbors.begin(), neighbors.end(), hop,
          [](const Arc& a, VertexId target) { return a.to < target; });
      row[t] = static_cast<uint8_t>(it - neighbors.begin());
    }
  }

  // --- Recursive refinement from the root pair (Appendix D). ---
  Refine(0, 0, root_level_);

  // The first-hop matrix is preprocessing scratch only.
  first_hop_.clear();
  first_hop_.shrink_to_fit();
}

void PcpdIndex::WalkPath(VertexId s, VertexId t,
                         std::vector<VertexId>* out) const {
  out->clear();
  const uint32_t n = graph_.NumVertices();
  out->push_back(s);
  VertexId cur = s;
  while (cur != t) {
    const uint8_t hop = first_hop_[static_cast<size_t>(cur) * n + t];
    if (hop == kNoHop) {
      out->clear();
      return;  // unreachable
    }
    cur = graph_.Neighbors(cur)[hop].to;
    out->push_back(cur);
  }
}

bool PcpdIndex::FindCommonObject(const BlockRange& rx, const BlockRange& ry,
                                 uint64_t base_x, uint64_t base_y,
                                 uint32_t level, Psi* psi) const {
  std::vector<VertexId> shared_vertices;
  std::vector<uint64_t> shared_edges;
  std::vector<VertexId> path;
  std::vector<VertexId> path_vertices;
  std::vector<uint64_t> path_edges;
  // Retained from the most recent path so a positional (middle-of-path)
  // choice of psi is possible after the loops.
  std::vector<VertexId> last_path;
  bool first = true;

  for (uint32_t i = rx.lo; i < rx.hi; ++i) {
    const VertexId x = sorted_[i];
    for (uint32_t j = ry.lo; j < ry.hi; ++j) {
      const VertexId y = sorted_[j];
      if (x == y) continue;  // only when the two blocks are identical
      WalkPath(x, y, &path);
      if (path.empty()) return false;  // an unreachable pair: not coherent

      path_vertices = path;
      std::sort(path_vertices.begin(), path_vertices.end());
      path_edges.clear();
      for (size_t e = 0; e + 1 < path.size(); ++e) {
        path_edges.push_back(DirectedEdgeKey(path[e], path[e + 1]));
      }
      std::sort(path_edges.begin(), path_edges.end());

      if (first) {
        shared_vertices = path_vertices;
        shared_edges = path_edges;
        first = false;
      } else {
        IntersectSorted(&shared_vertices, path_vertices);
        IntersectSorted(&shared_edges, path_edges);
      }
      // The paper's early termination: once nothing is shared, the pair
      // cannot be path-coherent.
      if (shared_vertices.empty() && shared_edges.empty()) return false;
      last_path = path;
    }
  }
  if (first) return false;  // no vertex pair at all

  // Select psi. Vertices inside either block are unusable (the query
  // decomposition could fail to make progress); among the valid shared
  // objects prefer the one nearest the middle of a witness path, which
  // keeps the query recursion balanced.
  VertexId best_vertex = kInvalidVertex;
  uint64_t best_edge = ~uint64_t{0};
  size_t best_vertex_gap = last_path.size();
  size_t best_edge_gap = last_path.size();
  const size_t mid = last_path.size() / 2;
  for (size_t pos = 0; pos < last_path.size(); ++pos) {
    const VertexId v = last_path[pos];
    const size_t gap = pos > mid ? pos - mid : mid - pos;
    if (std::binary_search(shared_vertices.begin(), shared_vertices.end(),
                           v) &&
        !CodeInBlock(code_of_[v], base_x, level) &&
        !CodeInBlock(code_of_[v], base_y, level) &&
        gap < best_vertex_gap) {
      best_vertex = v;
      best_vertex_gap = gap;
    }
    if (pos + 1 < last_path.size()) {
      const uint64_t e = DirectedEdgeKey(v, last_path[pos + 1]);
      if (std::binary_search(shared_edges.begin(), shared_edges.end(), e) &&
          gap < best_edge_gap) {
        best_edge = e;
        best_edge_gap = gap;
      }
    }
  }
  if (best_vertex != kInvalidVertex) {
    *psi = Psi{best_vertex, best_vertex};
    return true;
  }
  if (best_edge != ~uint64_t{0}) {
    *psi = Psi{static_cast<VertexId>(best_edge >> 32),
               static_cast<VertexId>(best_edge & 0xffffffffu)};
    return true;
  }
  return false;
}

void PcpdIndex::Refine(uint64_t base_x, uint64_t base_y, uint32_t level) {
  const BlockRange rx = FindBlockRange(sorted_codes_, base_x, level);
  const BlockRange ry = FindBlockRange(sorted_codes_, base_y, level);
  if (rx.Empty() || ry.Empty()) return;
  if (base_x == base_y && rx.Size() == 1) return;  // single vertex vs itself

  Psi psi;
  if (FindCommonObject(rx, ry, base_x, base_y, level, &psi)) {
    pcp_.emplace(PairKey{BlockId(base_x, level), BlockId(base_y, level)},
                 psi);
    return;
  }
  if (level == 0) return;  // unreachable singleton pair

  const uint64_t quarter = uint64_t{1} << (2 * (level - 1));
  for (int qx = 0; qx < 4; ++qx) {
    for (int qy = 0; qy < 4; ++qy) {
      Refine(base_x + quarter * qx, base_y + quarter * qy, level - 1);
    }
  }
}

const PcpdIndex::Psi& PcpdIndex::FindPair(VertexId s, VertexId t,
                                          QueryCounters* counters) const {
  static constexpr Psi kMissing{kInvalidVertex, kInvalidVertex};
  const uint64_t cs = code_of_[s];
  const uint64_t ct = code_of_[t];
  for (uint32_t level = root_level_;; --level) {
    const uint64_t mask = (level >= 32) ? 0 : ~((uint64_t{1} << (2 * level)) - 1);
    const PairKey key{BlockId(cs & mask, level), BlockId(ct & mask, level)};
    counters->TreeLookup();
    const auto it = pcp_.find(key);
    if (it != pcp_.end()) return it->second;
    if (level == 0) break;
  }
  return kMissing;
}

void PcpdIndex::AppendPath(VertexId s, VertexId t, Path* out,
                           QueryCounters* counters) const {
  if (s == t) return;
  const Psi& psi = FindPair(s, t, counters);
  if (psi.a == kInvalidVertex) {
    out->clear();  // unreachable or uncovered: signal failure upward
    return;
  }
  if (!psi.IsEdge()) {
    AppendPath(s, psi.a, out, counters);
    if (out->empty()) return;
    AppendPath(psi.a, t, out, counters);
    return;
  }
  AppendPath(s, psi.a, out, counters);
  if (out->empty()) return;
  out->push_back(psi.b);
  AppendPath(psi.b, t, out, counters);
}

Path PcpdIndex::PathQuery(QueryContext* ctx, VertexId s, VertexId t) const {
  ctx->counters.Reset();
  Path path{s};
  AppendPath(s, t, &path, &ctx->counters);
  // The decomposition yields vertices only; the length is their edge
  // weights' sum (kInfDistance for the empty unreachable path).
  ctx->path_distance = PathWeight(graph_, path);
  return path;
}

Distance PcpdIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                  VertexId t) const {
  // PCPD answers distance queries by materializing the path and summing
  // its edge weights (Section 3.5).
  PathQuery(ctx, s, t);
  return ctx->path_distance;
}

size_t PcpdIndex::IndexBytes() const {
  return VectorBytes(code_of_) + VectorBytes(sorted_) +
         VectorBytes(sorted_codes_) +
         pcp_.size() * (sizeof(PairKey) + sizeof(Psi) + sizeof(void*)) +
         pcp_.bucket_count() * sizeof(void*);
}

}  // namespace roadnet
