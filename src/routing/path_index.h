#ifndef ROADNET_ROUTING_PATH_INDEX_H_
#define ROADNET_ROUTING_PATH_INDEX_H_

#include <cstddef>
#include <memory>
#include <string>

#include "graph/types.h"
#include "obs/query_counters.h"
#include "routing/path.h"

namespace roadnet {

// Per-thread mutable query state of a PathIndex. Every technique keeps
// scratch sized by the graph (distance/parent/generation arrays, heaps)
// so queries run allocation-free; a QueryContext owns that scratch so the
// index itself can stay immutable after preprocessing and be shared by
// any number of threads.
//
// A context belongs to exactly one index (the one whose NewContext()
// created it) and may be used by at most one thread at a time. Contexts
// are cheap relative to the index: O(n) memory, no preprocessing.
class QueryContext {
 public:
  virtual ~QueryContext() = default;

  // Operation counts of the most recent query run on this context. Every
  // DistanceQuery/PathQuery resets these on entry and increments them on
  // its hot path, so reading them after a query gives that query's exact
  // search-space size (the paper's Section 4 explanation of the latency
  // ordering). Batch callers accumulate across queries with operator+=.
  QueryCounters counters;

  // Length of the path the most recent PathQuery on this context
  // returned: kInfDistance with an empty path, 0 with {s}. Every
  // PathQuery sets it from the search or walk that built the path, so a
  // caller wanting both of Section 2's answers for one pair makes one
  // PathQuery call and reads the distance here. DistanceQuery may leave
  // it stale.
  Distance path_distance = kInfDistance;
};

// Common interface of every technique the paper evaluates (Section 3):
// the bidirectional Dijkstra baseline, CH, TNR, SILC, and PCPD. Indexes
// are constructed over a Graph (preprocessing happens in the constructor
// or a factory) and then answer the paper's two query types.
//
// Thread-safety contract: after construction the index is immutable and
// holds no query state, so queries are safe to run concurrently as long
// as each thread passes its own QueryContext. A caller that times or
// counts queries creates its context first and reads ctx->counters.
class PathIndex {
 public:
  virtual ~PathIndex() = default;

  // Technique name as used in the paper's figures ("CH", "TNR", ...).
  virtual std::string Name() const = 0;

  // Creates a fresh query context for this index. Thread-safe.
  virtual std::unique_ptr<QueryContext> NewContext() const = 0;

  // Distance query (Section 2): length of the shortest path from s to t,
  // or kInfDistance if t is unreachable. `ctx` must come from this
  // index's NewContext().
  virtual Distance DistanceQuery(QueryContext* ctx, VertexId s,
                                 VertexId t) const = 0;

  // Shortest path query (Section 2): the path as a vertex sequence
  // (empty if unreachable). Also sets ctx->path_distance to the path's
  // length, so one call answers both query types for (s, t).
  virtual Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const = 0;

  // Bytes of precomputed structures held beyond the input graph; the
  // paper's "space consumption" metric (Figure 6a). Excludes contexts.
  virtual size_t IndexBytes() const = 0;
};

}  // namespace roadnet

#endif  // ROADNET_ROUTING_PATH_INDEX_H_
