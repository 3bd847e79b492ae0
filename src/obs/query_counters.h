#ifndef ROADNET_OBS_QUERY_COUNTERS_H_
#define ROADNET_OBS_QUERY_COUNTERS_H_

#include <cstdint>

namespace roadnet {

// Per-query operation counts: the paper's internal-work explanation for
// its latency figures (Section 4 discusses search-space size; CH beats
// bidirectional Dijkstra because it settles orders of magnitude fewer
// vertices, and TNR's table lookups beat graph searches entirely).
//
// A QueryCounters instance lives inside every technique's QueryContext,
// so incrementing is a plain add on memory the query already touches —
// no allocation, no atomics, no indirection. Each DistanceQuery /
// PathQuery resets the context's counters on entry, so after a query the
// counters describe exactly that query; callers that want batch totals
// accumulate with operator+= (QueryEngine does this per worker).
//
// Every build counts: each published number (perfbench, bench_paper,
// BENCH_*.json) is taken with the counters on. DESIGN.md's Observability
// section records what they cost against a build without them.
struct QueryCounters {
  // Vertices removed from a priority queue and finalized by the main
  // (forward/backward/upward) searches. TNR in-table queries settle 0.
  uint64_t vertices_settled = 0;
  // Arc relaxation attempts that passed the technique's pruning filter
  // (arc flags, reach bounds, stall-on-demand, upward-only, ...), whether
  // or not the arc's head is already settled. This is the paper's "edges
  // scanned" notion of search work.
  uint64_t edges_relaxed = 0;
  // All priority-queue inserts / decrease-keys, across every internal
  // search a query runs (including TNR fallback and HiTi restricted
  // searches).
  uint64_t heap_pushes = 0;
  // All priority-queue removals, including pops the technique discards
  // (stalled CH vertices, pruned reach vertices) without settling.
  uint64_t heap_pops = 0;
  // Shortcut arcs expanded during path unpacking (CH recursive unpack,
  // HiTi clique-arc expansion).
  uint64_t shortcuts_unpacked = 0;
  // Binary-search lookups of augmented-edge records during path
  // unpacking. The rank-space CH layout resolves every shortcut to its
  // child arc indices at build time and performs none; only bench_hl's
  // frozen AoS copy of the old layout counts here, and tests pin the real
  // index to zero.
  uint64_t edge_searches = 0;
  // Probes of precomputed distance tables: TNR access-node table cells,
  // ALT landmark-distance rows.
  uint64_t table_lookups = 0;
  // Spatial-tree descents: SILC quadtree interval lookups (one per
  // NextHop call), PCPD synchronized quadtree-descent probes.
  uint64_t tree_lookups = 0;

  void Reset() { *this = QueryCounters{}; }

  friend bool operator==(const QueryCounters&,
                         const QueryCounters&) = default;

  QueryCounters& operator+=(const QueryCounters& o) {
    vertices_settled += o.vertices_settled;
    edges_relaxed += o.edges_relaxed;
    heap_pushes += o.heap_pushes;
    heap_pops += o.heap_pops;
    shortcuts_unpacked += o.shortcuts_unpacked;
    edge_searches += o.edge_searches;
    table_lookups += o.table_lookups;
    tree_lookups += o.tree_lookups;
    return *this;
  }

  // Increment helpers. `n` defaults to 1.
  void Settle(uint64_t n = 1) { vertices_settled += n; }
  void RelaxEdge(uint64_t n = 1) { edges_relaxed += n; }
  void HeapPush(uint64_t n = 1) { heap_pushes += n; }
  void HeapPop(uint64_t n = 1) { heap_pops += n; }
  void ShortcutUnpacked(uint64_t n = 1) { shortcuts_unpacked += n; }
  void EdgeSearch(uint64_t n = 1) { edge_searches += n; }
  void TableLookup(uint64_t n = 1) { table_lookups += n; }
  void TreeLookup(uint64_t n = 1) { tree_lookups += n; }
};

}  // namespace roadnet

#endif  // ROADNET_OBS_QUERY_COUNTERS_H_
