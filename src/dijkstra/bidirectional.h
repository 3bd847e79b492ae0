#ifndef ROADNET_DIJKSTRA_BIDIRECTIONAL_H_
#define ROADNET_DIJKSTRA_BIDIRECTIONAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "pq/indexed_heap.h"
#include "routing/path.h"
#include "routing/path_index.h"

namespace roadnet {

// Bidirectional Dijkstra (Pohl 1971), the paper's baseline (Section 3.1).
// Two simultaneous Dijkstra instances grow shortest-path trees from s and
// from t; the searches stop once the sum of the two frontier minima proves
// no better meeting point exists, and the answer is the best
// dist(s, u) + dist(u, t) seen over all doubly-reached vertices u.
//
// Implements PathIndex with zero preprocessing and zero index space; all
// search state lives in the QueryContext, so one instance serves any
// number of threads.
class BidirectionalDijkstra : public PathIndex {
 public:
  explicit BidirectionalDijkstra(const Graph& g);

  std::string Name() const override { return "Dijkstra"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override { return 0; }

 private:
  // One of the two search directions; 0 = forward from s, 1 = backward
  // from t (identical on an undirected graph, kept separate for clarity).
  struct Side {
    IndexedHeap<Distance> heap;
    std::vector<Distance> dist;
    std::vector<VertexId> parent;
    std::vector<uint32_t> reached;
    std::vector<uint32_t> settled;

    explicit Side(uint32_t n)
        : heap(n), dist(n, 0), parent(n, kInvalidVertex), reached(n, 0),
          settled(n, 0) {}

    bool Reached(VertexId v, uint32_t gen) const {
      return reached[v] == gen;
    }
  };

  struct Context : QueryContext {
    explicit Context(uint32_t n) : forward(n), backward(n) {}

    Side forward;
    Side backward;
    uint32_t generation = 0;
  };

  // Runs the full bidirectional search; returns the meeting vertex with
  // the minimal combined distance (kInvalidVertex if unreachable) and the
  // distance in *out_dist.
  VertexId Search(Context* ctx, VertexId s, VertexId t,
                  Distance* out_dist) const;

  // Settles the minimum of `side`, relaxing edges; updates the best
  // meeting vertex seen so far.
  void SettleOne(Context* ctx, Side* side, const Side& other,
                 VertexId* best_meet, Distance* best_dist) const;

  const Graph& graph_;
};

}  // namespace roadnet

#endif  // ROADNET_DIJKSTRA_BIDIRECTIONAL_H_
