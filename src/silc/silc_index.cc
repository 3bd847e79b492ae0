#include "silc/silc_index.h"

#include <algorithm>

#include "dijkstra/dijkstra.h"
#include "util/bytes.h"

namespace roadnet {

SilcIndex::SilcIndex(const Graph& g) : graph_(g), space_(g) {
  const uint32_t n = g.NumVertices();
  Dijkstra dijkstra(g);

  interval_offsets_.assign(n + 1, 0);
  exception_offsets_.assign(n + 1, 0);

  std::vector<uint32_t> color_of(n);           // per vertex id
  std::vector<uint32_t> color_by_position(n);  // per Morton position
  std::vector<ColorInterval> intervals;
  std::vector<uint32_t> exceptions;

  for (VertexId v = 0; v < n; ++v) {
    // Colour every vertex by the first hop of its shortest path from v
    // (the index of that neighbour in v's adjacency list).
    dijkstra.RunAllWithFirstHop(v);
    auto neighbors = g.Neighbors(v);
    for (VertexId u = 0; u < n; ++u) {
      if (u == v) {
        color_of[u] = kColorSource;
        continue;
      }
      const VertexId hop = dijkstra.FirstHopOf(u);
      if (hop == kInvalidVertex) {
        color_of[u] = kColorUnreachable;
        continue;
      }
      const auto it = std::lower_bound(
          neighbors.begin(), neighbors.end(), hop,
          [](const Arc& a, VertexId target) { return a.to < target; });
      color_of[u] = static_cast<uint32_t>(it - neighbors.begin());
    }
    const std::vector<VertexId>& order = space_.SortedVertices();
    for (uint32_t i = 0; i < n; ++i) {
      color_by_position[i] = color_of[order[i]];
    }

    CompressColors(space_, color_by_position, &intervals, &exceptions);
    interval_offsets_[v + 1] = interval_offsets_[v] + intervals.size();
    intervals_.insert(intervals_.end(), intervals.begin(), intervals.end());
    exception_offsets_[v + 1] = exception_offsets_[v] + exceptions.size();
    for (uint32_t pos : exceptions) {
      exceptions_.push_back(Exception{order[pos], color_by_position[pos]});
    }
  }
}

const Arc* SilcIndex::NextArc(VertexId from, VertexId to) const {
  // Exceptions first (vertices indistinguishable by Morton code).
  for (size_t i = exception_offsets_[from]; i < exception_offsets_[from + 1];
       ++i) {
    if (exceptions_[i].vertex == to) {
      const uint32_t c = exceptions_[i].color;
      if (c >= kColorUnreachable) return nullptr;
      return &graph_.Neighbors(from)[c];
    }
  }
  const auto ivs = IntervalsOf(from);
  const uint32_t color =
      LookupColor(ivs.data(), ivs.data() + ivs.size(), space_.CodeOf(to));
  if (color >= kColorUnreachable) return nullptr;
  return &graph_.Neighbors(from)[color];
}

VertexId SilcIndex::NextHop(VertexId from, VertexId to) const {
  const Arc* hop = NextArc(from, to);
  return hop == nullptr ? kInvalidVertex : hop->to;
}

Distance SilcIndex::Walk(QueryContext* ctx, VertexId s, VertexId t,
                         Path* path) const {
  ctx->counters.Reset();
  if (s == t) return 0;
  Distance total = 0;
  VertexId cur = s;
  // Every hop strictly shrinks the remaining distance, so the walk ends
  // after at most n - 1 steps; the bound is a corruption guard.
  for (uint32_t step = 0; step < graph_.NumVertices(); ++step) {
    ctx->counters.TreeLookup();
    const Arc* hop = NextArc(cur, t);
    if (hop == nullptr) return kInfDistance;
    // The colour indexes cur's adjacency directly, so the hop's weight is
    // one array access (no edge search needed).
    total += hop->weight;
    if (path != nullptr) path->push_back(hop->to);
    if (hop->to == t) return total;
    cur = hop->to;
  }
  return kInfDistance;
}

Path SilcIndex::PathQuery(QueryContext* ctx, VertexId s, VertexId t) const {
  Path path{s};
  ctx->path_distance = Walk(ctx, s, t, &path);
  if (ctx->path_distance == kInfDistance) return {};
  return path;
}

Distance SilcIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                  VertexId t) const {
  return Walk(ctx, s, t, nullptr);
}

size_t SilcIndex::IndexBytes() const {
  return space_.MemoryBytes() + VectorBytes(interval_offsets_) +
         VectorBytes(intervals_) + VectorBytes(exception_offsets_) +
         VectorBytes(exceptions_);
}

}  // namespace roadnet
