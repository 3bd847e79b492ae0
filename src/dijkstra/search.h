#ifndef ROADNET_DIJKSTRA_SEARCH_H_
#define ROADNET_DIJKSTRA_SEARCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "pq/indexed_heap.h"
#include "routing/path.h"
#include "routing/path_index.h"

namespace roadnet {

// The search state and loops of the Dijkstra-family techniques. The
// bidirectional baseline and RE run BidirectionalSearch; ALT and Arc
// Flags run GoalDirectedSearch; HiTi and the redundancy meter drive short
// loops of their own over a SearchState. Each technique's rule (a reach
// test, a landmark potential, an arc-flag filter) is a template argument,
// so every technique gets its own compiled loop and no shared code asks
// at run time which technique called it. The oracle Dijkstra (dijkstra.h)
// stays separate on purpose: the tests check every technique against
// code that shares nothing with it.

// Zero everywhere: the search is plain Dijkstra.
struct ZeroPotential {
  Distance operator()(VertexId) const { return 0; }
};

// One direction of a search: a heap keyed by distance (plus a potential,
// for A*), tentative distances, and the shortest-path tree's parents.
// Whether a vertex was reached or settled is read from the heap's own
// generation-stamped slot, so starting a search costs O(1) and no stamp
// arrays sit beside the heap.
struct SearchState {
  explicit SearchState(uint32_t n)
      : heap(n), dist(n, 0), parent(n, kInvalidVertex) {}

  IndexedHeap<Distance> heap;
  std::vector<Distance> dist;
  std::vector<VertexId> parent;

  // Queued or settled since the last Start.
  bool Reached(VertexId v) const { return heap.Seen(v); }
  // Settled (popped) since the last Start.
  bool Settled(VertexId v) const { return heap.Popped(v); }

  // Forgets the previous search and queues `source` at distance 0 under
  // heap key `key`.
  void Start(VertexId source, Distance key) {
    heap.Clear();
    dist[source] = 0;
    parent[source] = kInvalidVertex;
    heap.Push(source, key);
  }

  // Offers `cand` as v's distance through its tree parent u: queues an
  // unreached v, or lowers the distance of a queued v that `cand`
  // improves. The heap key is cand + potential(v), and potential is only
  // asked when v is queued or lowered. Returns true in those two cases.
  template <typename Potential>
  bool Relax(VertexId u, VertexId v, Distance cand, Potential potential) {
    if (!Reached(v)) {
      dist[v] = cand;
      parent[v] = u;
      heap.Push(v, cand + potential(v));
      return true;
    }
    if (cand >= dist[v] || Settled(v)) return false;
    dist[v] = cand;
    parent[v] = u;
    heap.DecreaseKey(v, cand + potential(v));
    return true;
  }
  bool Relax(VertexId u, VertexId v, Distance cand) {
    return Relax(u, v, cand, ZeroPotential{});
  }

  // The tree path from the search's source to a reached v.
  Path PathTo(VertexId v) const {
    Path path;
    for (VertexId cur = v; cur != kInvalidVertex; cur = parent[cur]) {
      path.push_back(cur);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }
};

// Query scratch of a search from both ends: `forward` grows from s,
// `backward` from t (the same on an undirected graph, kept apart for
// clarity).
struct BidirectionalContext : QueryContext {
  explicit BidirectionalContext(uint32_t n) : forward(n), backward(n) {}

  SearchState forward;
  SearchState backward;

  // The s-t path through the meeting vertex BidirectionalSearch returned;
  // empty for kInvalidVertex (t unreachable).
  Path PathThrough(VertexId meet) const {
    if (meet == kInvalidVertex) return {};
    Path path = forward.PathTo(meet);
    for (VertexId cur = backward.parent[meet]; cur != kInvalidVertex;
         cur = backward.parent[cur]) {
      path.push_back(cur);
    }
    return path;
  }
};

// Query scratch of a one-directional search.
struct GoalDirectedContext : QueryContext {
  explicit GoalDirectedContext(uint32_t n) : search(n) {}

  SearchState search;
};

// Never prunes (plain bidirectional Dijkstra).
struct NoPrune {
  bool operator()(VertexId, Distance, const SearchState&) const {
    return false;
  }
};

// Bidirectional Dijkstra (Pohl 1971), the paper's baseline (Section 3.1):
// two Dijkstra searches grow from s and from t, always expanding the
// smaller frontier key, and stop once the two frontier minima together
// cannot beat the best dist(s, u) + dist(u, t) seen over the vertices u
// both have reached. prune(u, dist_u, other) is asked once per settled
// vertex u, with the opposite search's state; true skips u's arcs (RE's
// reach test, Appendix A).
//
// Resets ctx->counters. Returns the meeting vertex of a shortest path
// (kInvalidVertex if t is unreachable) and sets *dist to its length.
template <typename Prune>
VertexId BidirectionalSearch(const Graph& g, BidirectionalContext* ctx,
                             VertexId s, VertexId t, Prune prune,
                             Distance* dist) {
  QueryCounters& counters = ctx->counters;
  counters.Reset();
  SearchState& forward = ctx->forward;
  SearchState& backward = ctx->backward;
  forward.Start(s, 0);
  backward.Start(t, 0);
  counters.HeapPush(2);
  if (s == t) {
    *dist = 0;
    return s;
  }

  Distance best_dist = kInfDistance;
  VertexId best_meet = kInvalidVertex;
  auto settle_one = [&](SearchState& side, const SearchState& other) {
    const VertexId u = side.heap.PopMin();
    counters.HeapPop();
    counters.Settle();
    const Distance du = side.dist[u];
    if (prune(u, du, other)) return;
    for (const Arc& a : g.Neighbors(u)) {
      counters.RelaxEdge();
      const Distance cand = du + a.weight;
      if (!side.Relax(u, a.to, cand)) continue;
      counters.HeapPush();
      // Checking every improvement of a vertex the other search has
      // reached covers both meeting at a vertex and crossing an edge
      // between the two settled sets.
      if (other.Reached(a.to) && cand + other.dist[a.to] < best_dist) {
        best_dist = cand + other.dist[a.to];
        best_meet = a.to;
      }
    }
  };
  while (!forward.heap.Empty() && !backward.heap.Empty()) {
    if (best_dist != kInfDistance &&
        forward.heap.MinKey() + backward.heap.MinKey() >= best_dist) {
      break;
    }
    if (forward.heap.MinKey() <= backward.heap.MinKey()) {
      settle_one(forward, backward);
    } else {
      settle_one(backward, forward);
    }
  }
  *dist = best_dist;
  return best_meet;
}

// Passes every arc.
struct AllArcs {
  bool operator()(size_t) const { return true; }
};

// A search from s that stops when it settles t. It relaxes only the arcs
// that filter(arc) passes, where `arc` is the arc's CSR index
// (Graph::FirstArcIndex(u) + i; Arc Flags' flag test), and orders its
// heap by dist(s, v) + potential(v), which must be a consistent lower
// bound on dist(v, t) (ALT's landmark bound; A*).
//
// Every arc the filter passes counts as relaxed, settled head or not, as
// in BidirectionalSearch. Resets ctx->counters. Returns dist(s, t)
// (kInfDistance if unreachable); for s != t the path is
// ctx->search.PathTo(t).
template <typename ArcFilter, typename Potential>
Distance GoalDirectedSearch(const Graph& g, GoalDirectedContext* ctx,
                            VertexId s, VertexId t, ArcFilter filter,
                            Potential potential) {
  QueryCounters& counters = ctx->counters;
  counters.Reset();
  if (s == t) return 0;
  SearchState& state = ctx->search;
  state.Start(s, potential(s));
  counters.HeapPush();
  while (!state.heap.Empty()) {
    const VertexId u = state.heap.PopMin();
    counters.HeapPop();
    counters.Settle();
    if (u == t) return state.dist[t];
    const Distance du = state.dist[u];
    const size_t first = g.FirstArcIndex(u);
    const std::span<const Arc> arcs = g.Neighbors(u);
    for (size_t i = 0; i < arcs.size(); ++i) {
      if (!filter(first + i)) continue;
      counters.RelaxEdge();
      if (state.Relax(u, arcs[i].to, du + arcs[i].weight, potential)) {
        counters.HeapPush();
      }
    }
  }
  return kInfDistance;
}

}  // namespace roadnet

#endif  // ROADNET_DIJKSTRA_SEARCH_H_
