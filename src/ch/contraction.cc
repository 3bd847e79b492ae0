#include "ch/contraction.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>

#include "pq/indexed_heap.h"
#include "util/rng.h"

namespace roadnet {

namespace {

// Arc of the dynamic overlay graph maintained during contraction.
struct OverlayArc {
  VertexId to;
  Weight weight;
  VertexId middle;  // kInvalidVertex for original edges
};

// The overlay: the not-yet-contracted part of the road network plus the
// shortcuts added so far. Keeps at most one arc per vertex pair (minimum
// weight wins), which matches the semantics of dist() the shortcut weights
// encode.
class Overlay {
 public:
  explicit Overlay(const Graph& g) : adj_(g.NumVertices()) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      adj_[v].reserve(g.Degree(v));
      for (const Arc& a : g.Neighbors(v)) {
        adj_[v].push_back(OverlayArc{a.to, a.weight, kInvalidVertex});
      }
    }
  }

  const std::vector<OverlayArc>& Neighbors(VertexId v) const {
    return adj_[v];
  }

  // Inserts the arc pair (u, v) with the given weight/middle, or lowers an
  // existing arc's weight. Returns true if the overlay changed.
  bool AddOrImprove(VertexId u, VertexId v, Weight w, VertexId middle) {
    OverlayArc* existing = Find(u, v);
    if (existing != nullptr) {
      if (existing->weight <= w) return false;
      existing->weight = w;
      existing->middle = middle;
      OverlayArc* reverse = Find(v, u);
      reverse->weight = w;
      reverse->middle = middle;
      return true;
    }
    adj_[u].push_back(OverlayArc{v, w, middle});
    adj_[v].push_back(OverlayArc{u, w, middle});
    return true;
  }

  // Removes v and all its incident arcs.
  void RemoveVertex(VertexId v) {
    for (const OverlayArc& a : adj_[v]) {
      std::vector<OverlayArc>& list = adj_[a.to];
      list.erase(std::remove_if(list.begin(), list.end(),
                                [v](const OverlayArc& b) { return b.to == v; }),
                 list.end());
    }
    adj_[v].clear();
    adj_[v].shrink_to_fit();
  }

 private:
  OverlayArc* Find(VertexId u, VertexId v) {
    for (OverlayArc& a : adj_[u]) {
      if (a.to == v) return &a;
    }
    return nullptr;
  }

  std::vector<std::vector<OverlayArc>> adj_;
};

// Bounded local Dijkstra over the overlay that skips the vertex being
// contracted; used to find witness paths certifying that a shortcut is
// unnecessary. Truncation (settle limit) errs on the side of adding
// redundant shortcuts, never on incorrectness.
class WitnessSearch {
 public:
  explicit WitnessSearch(uint32_t n)
      : heap_(n), dist_(n, 0), via_(n, 0), reached_(n, 0), pending_(n, 0) {}

  // Searches from neighbour `i` of `v` in overlay \ {v} until it has
  // decided every pair (i, j > i): whether some path to neighbour j is
  // no longer than the path through v. Settles at most `settle_limit`
  // vertices. Never pushes a vertex farther than the longest path through
  // v from i to any other neighbour, so the pushes, pops and heap ties
  // are those of a search that runs until that bound; stopping early
  // only cuts that search short once nothing it could still do would
  // change a decision.
  void Run(const Overlay& overlay, VertexId v, size_t i,
           uint32_t settle_limit) {
    const std::vector<OverlayArc>& neighbors = overlay.Neighbors(v);
    const OverlayArc& from = neighbors[i];
    ++generation_;
    Distance bound = 0;
    Distance target_bound = 0;
    uint32_t undecided = 0;
    for (size_t j = 0; j < neighbors.size(); ++j) {
      if (j == i) continue;
      const Distance via = Distance{from.weight} + neighbors[j].weight;
      bound = std::max(bound, via);
      if (j < i) continue;
      target_bound = std::max(target_bound, via);
      via_[neighbors[j].to] = via;
      pending_[neighbors[j].to] = generation_;
      ++undecided;
    }

    heap_.Clear();
    dist_[from.to] = 0;
    reached_[from.to] = generation_;
    heap_.Push(from.to, 0);
    uint32_t settled = 0;
    // A target is decided once it is reached within its via distance
    // (distances only fall) or popped (its distance is final). Once the
    // heap minimum passes every via distance, no undecided target can
    // come within its own.
    while (undecided > 0 && !heap_.Empty() && settled < settle_limit) {
      if (heap_.MinKey() > target_bound) break;
      VertexId u = heap_.PopMin();
      ++settled;
      if (pending_[u] == generation_) {
        pending_[u] = 0;
        --undecided;
      }
      const Distance du = dist_[u];
      for (const OverlayArc& a : overlay.Neighbors(u)) {
        if (a.to == v) continue;
        const Distance cand = du + a.weight;
        if (cand > bound) continue;
        if (reached_[a.to] != generation_) {
          reached_[a.to] = generation_;
          dist_[a.to] = cand;
          heap_.Push(a.to, cand);
        } else if (heap_.Contains(a.to) && cand < dist_[a.to]) {
          dist_[a.to] = cand;
          heap_.DecreaseKey(a.to, cand);
        } else {
          continue;
        }
        if (pending_[a.to] == generation_ && cand <= via_[a.to]) {
          pending_[a.to] = 0;
          --undecided;
        }
      }
    }
  }

  // Best distance found for v by the last Run (kInfDistance if unreached).
  Distance DistanceTo(VertexId v) const {
    return reached_[v] == generation_ ? dist_[v] : kInfDistance;
  }

 private:
  IndexedHeap<Distance> heap_;
  std::vector<Distance> dist_;
  // Path length through the contracted vertex, per target of this run.
  std::vector<Distance> via_;
  std::vector<uint32_t> reached_;
  // == generation_ while the vertex is a target whose pair is undecided.
  std::vector<uint32_t> pending_;
  uint32_t generation_ = 0;
};

// A shortcut the contraction of one vertex would create. The weight is
// the full path length; it is narrowed to a Weight only if the shortcut is
// actually added.
struct PlannedShortcut {
  VertexId u;
  VertexId v;
  Distance weight;
};

// Vertices a thread of the initial priority pass claims at a time, and
// the fewest vertices worth one more thread.
constexpr uint32_t kInitialPassChunk = 256;
constexpr uint32_t kInitialPassVerticesPerThread = 1024;

// Narrows a shortcut's path length to an edge weight. A longer shortcut
// cannot be stored, and truncating it would corrupt every query through
// it, so this fails in every build.
Weight ShortcutWeight(const PlannedShortcut& sc) {
  if (sc.weight > std::numeric_limits<Weight>::max()) {
    std::fprintf(stderr,
                 "ContractGraph: shortcut %u-%u of weight %llu exceeds the "
                 "32-bit shortcut-weight limit (%u)\n",
                 sc.u, sc.v, static_cast<unsigned long long>(sc.weight),
                 std::numeric_limits<Weight>::max());
    std::abort();
  }
  return static_cast<Weight>(sc.weight);
}

class Contractor {
 public:
  Contractor(const Graph& g, const ChConfig& config)
      : graph_(g),
        config_(config),
        overlay_(g),
        witness_(g.NumVertices()),
        deleted_neighbours_(g.NumVertices(), 0),
        random_priority_(g.NumVertices(), 0),
        queue_(g.NumVertices()) {
    if (config_.heuristic == OrderingHeuristic::kRandom) {
      Rng rng(config_.seed);
      for (auto& p : random_priority_) {
        p = static_cast<int64_t>(rng.NextBelow(1u << 30));
      }
    }
  }

  ContractionResult Run() {
    const uint32_t n = graph_.NumVertices();
    ContractionResult result;
    result.rank.assign(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      for (const Arc& a : graph_.Neighbors(v)) {
        if (v < a.to) {
          result.edges.push_back(TaggedEdge{v, a.to, a.weight, kInvalidVertex});
        }
      }
    }

    const std::vector<int64_t> initial = InitialPriorities();
    for (VertexId v = 0; v < n; ++v) queue_.Push(v, initial[v]);

    std::vector<PlannedShortcut> scratch;
    uint32_t next_rank = 0;
    while (!queue_.Empty()) {
      VertexId v = queue_.PopMin();
      // Lazy re-evaluation: contraction of other vertices may have changed
      // v's priority; contract only if v is still (weakly) minimal.
      int64_t p = Priority(v, &witness_, &scratch);
      if (!queue_.Empty() && p > queue_.MinKey()) {
        queue_.Push(v, p);
        continue;
      }
      // Contract v: `scratch` holds the shortcuts Priority() just planned.
      for (const PlannedShortcut& sc : scratch) {
        const Weight w = ShortcutWeight(sc);
        overlay_.AddOrImprove(sc.u, sc.v, w, v);
        result.edges.push_back(TaggedEdge{sc.u, sc.v, w, v});
        ++result.num_shortcuts;
      }
      // Bump the deleted-neighbour term of surviving neighbours.
      for (const OverlayArc& a : overlay_.Neighbors(v)) {
        ++deleted_neighbours_[a.to];
      }
      overlay_.RemoveVertex(v);
      result.rank[v] = next_rank++;
    }

    DeduplicateEdges(&result);
    return result;
  }

 private:
  // Every vertex's priority before the first contraction, computed on all
  // cores. Nothing has been contracted yet, so the overlay and the
  // deleted-neighbour counts are read-only here; each thread owns a
  // witness search and writes only the slots of the vertices it claims,
  // so the result does not depend on scheduling.
  std::vector<int64_t> InitialPriorities() {
    const uint32_t n = graph_.NumVertices();
    std::vector<int64_t> priorities(n);
    const size_t num_threads = std::max<size_t>(
        1, std::min<size_t>(std::thread::hardware_concurrency(),
                            (n + kInitialPassVerticesPerThread - 1) /
                                kInitialPassVerticesPerThread));
    // Allocated here, not on the workers: a failed allocation surfaces on
    // this thread, and the memory returns to this thread's heap, where a
    // worker's allocator arena kept it (4 MiB more peak RSS on W-US').
    // Thread 0 is this thread and uses witness_.
    std::vector<WitnessSearch> searches;
    searches.reserve(num_threads - 1);
    for (size_t t = 1; t < num_threads; ++t) searches.emplace_back(n);

    std::atomic<uint32_t> cursor{0};
    std::vector<std::exception_ptr> failures(num_threads);
    auto worker = [&](size_t t, WitnessSearch* witness) {
      try {
        std::vector<PlannedShortcut> scratch;
        for (;;) {
          const uint32_t begin =
              cursor.fetch_add(kInitialPassChunk, std::memory_order_relaxed);
          if (begin >= n) return;
          const uint32_t end = std::min(begin + kInitialPassChunk, n);
          for (VertexId v = begin; v < end; ++v) {
            priorities[v] = Priority(v, witness, &scratch);
          }
        }
      } catch (...) {
        failures[t] = std::current_exception();
      }
    };
    {
      // jthreads join when the scope ends, also if starting one throws.
      std::vector<std::jthread> threads;
      threads.reserve(searches.size());
      for (size_t t = 1; t < num_threads; ++t) {
        threads.emplace_back(worker, t, &searches[t - 1]);
      }
      worker(0, &witness_);
    }
    for (const std::exception_ptr& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
    return priorities;
  }

  // Computes v's current priority; fills *shortcuts with the shortcuts its
  // contraction would create right now.
  int64_t Priority(VertexId v, WitnessSearch* witness,
                   std::vector<PlannedShortcut>* shortcuts) const {
    shortcuts->clear();
    const std::vector<OverlayArc>& neighbors = overlay_.Neighbors(v);

    // For each neighbour u, one witness search decides the pairs (u, w)
    // with w after u; the last neighbour has none left to decide.
    for (size_t i = 0; i + 1 < neighbors.size(); ++i) {
      const OverlayArc& nu = neighbors[i];
      witness->Run(overlay_, v, i, config_.witness_settle_limit);
      for (size_t j = i + 1; j < neighbors.size(); ++j) {
        const OverlayArc& nw = neighbors[j];
        const Distance via = Distance{nu.weight} + nw.weight;
        if (witness->DistanceTo(nw.to) > via) {
          shortcuts->push_back(PlannedShortcut{nu.to, nw.to, via});
        }
      }
    }

    if (config_.heuristic == OrderingHeuristic::kRandom) {
      return random_priority_[v];
    }
    PriorityTerms terms;
    terms.edge_difference = static_cast<int32_t>(shortcuts->size()) -
                            static_cast<int32_t>(neighbors.size());
    terms.deleted_neighbours =
        static_cast<int32_t>(deleted_neighbours_[v]);
    terms.degree = static_cast<int32_t>(neighbors.size());
    return CombinePriority(config_.heuristic, terms);
  }

  // Collapses duplicate (u, v) records, keeping the minimum weight (the
  // only one a query can use, hence the only one unpacking needs).
  static void DeduplicateEdges(ContractionResult* result) {
    for (TaggedEdge& e : result->edges) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    std::sort(result->edges.begin(), result->edges.end(),
              [](const TaggedEdge& a, const TaggedEdge& b) {
                if (a.u != b.u) return a.u < b.u;
                if (a.v != b.v) return a.v < b.v;
                return a.weight < b.weight;
              });
    result->edges.erase(
        std::unique(result->edges.begin(), result->edges.end(),
                    [](const TaggedEdge& a, const TaggedEdge& b) {
                      return a.u == b.u && a.v == b.v;
                    }),
        result->edges.end());
  }

  const Graph& graph_;
  const ChConfig config_;
  Overlay overlay_;
  WitnessSearch witness_;
  std::vector<uint32_t> deleted_neighbours_;
  std::vector<int64_t> random_priority_;
  IndexedHeap<int64_t> queue_;
};

}  // namespace

ContractionResult ContractGraph(const Graph& g, const ChConfig& config) {
  return Contractor(g, config).Run();
}

}  // namespace roadnet
