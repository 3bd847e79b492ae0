#include "ch/contraction.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <span>
#include <thread>

#include "pq/indexed_heap.h"
#include "util/rng.h"

namespace roadnet {

namespace {

// Arc of the dynamic overlay graph maintained during contraction.
struct OverlayArc {
  VertexId to;
  Weight weight;
};

// The overlay: the not-yet-contracted part of the road network plus the
// shortcuts added so far. Keeps at most one arc per vertex pair (minimum
// weight wins), which matches the semantics of dist() the shortcut weights
// encode.
//
// Every vertex's arcs are one block of a single arena. A block that is
// full moves to the arena's end at twice its capacity. When the arena
// has no room left, the blocks slide down over the space that moved and
// removed blocks left, and the arena grows only if that frees too little.
// Every edit keeps a list's order (appends at the end, order-preserving
// erase, weights lowered in place), because that order fixes the order
// of witness searches and of the shortcuts, and so the hierarchy.
class Overlay {
 public:
  explicit Overlay(const Graph& g) : blocks_(g.NumVertices()) {
    // Room for the shortcuts of the first contractions.
    arcs_.reserve(3 * g.NumEdges());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const uint32_t degree = static_cast<uint32_t>(g.Degree(v));
      blocks_[v] = Block{static_cast<uint32_t>(arcs_.size()), degree, degree};
      for (const Arc& a : g.Neighbors(v)) {
        arcs_.push_back(OverlayArc{a.to, a.weight});
      }
    }
  }

  // Valid until the next AddOrImprove.
  std::span<const OverlayArc> Neighbors(VertexId v) const {
    return {arcs_.data() + blocks_[v].first, blocks_[v].count};
  }

  // Inserts the arc pair (u, v) with the given weight, or lowers an
  // existing arc's weight.
  void AddOrImprove(VertexId u, VertexId v, Weight w) {
    OverlayArc* existing = Find(u, v);
    if (existing != nullptr) {
      if (existing->weight <= w) return;
      existing->weight = w;
      Find(v, u)->weight = w;
      return;
    }
    Append(u, OverlayArc{v, w});
    Append(v, OverlayArc{u, w});
  }

  // Removes v and all its incident arcs.
  void RemoveVertex(VertexId v) {
    for (const OverlayArc& a : Neighbors(v)) {
      Block& b = blocks_[a.to];
      OverlayArc* begin = arcs_.data() + b.first;
      OverlayArc* end = std::remove_if(
          begin, begin + b.count,
          [v](const OverlayArc& c) { return c.to == v; });
      b.count = static_cast<uint32_t>(end - begin);
    }
    blocks_[v].count = 0;
  }

 private:
  struct Block {
    uint32_t first;
    uint32_t count;
    uint32_t capacity;
  };

  OverlayArc* Find(VertexId u, VertexId v) {
    const Block& b = blocks_[u];
    OverlayArc* begin = arcs_.data() + b.first;
    for (OverlayArc* a = begin; a != begin + b.count; ++a) {
      if (a->to == v) return a;
    }
    return nullptr;
  }

  void Append(VertexId u, OverlayArc arc) {
    Block& b = blocks_[u];
    if (b.count == b.capacity) {
      const uint32_t capacity = std::max<uint32_t>(1, 2 * b.capacity);
      if (arcs_.size() + capacity > arcs_.capacity()) Compact(capacity);
      const size_t first = arcs_.size();
      arcs_.resize(first + capacity);
      std::copy_n(arcs_.begin() + b.first, b.count, arcs_.begin() + first);
      b.first = static_cast<uint32_t>(first);
      b.capacity = capacity;
    }
    arcs_[b.first + b.count++] = arc;
  }

  // Slides every block that holds arcs down to the start of the arena, in
  // arena order, and drops the others. Grows the arena by half if less
  // than a quarter of it is then free for the `need` arcs to come.
  void Compact(size_t need) {
    std::vector<VertexId> order;
    for (VertexId v = 0; v < blocks_.size(); ++v) {
      if (blocks_[v].count > 0) {
        order.push_back(v);
      } else {
        blocks_[v] = Block{0, 0, 0};
      }
    }
    std::sort(order.begin(), order.end(), [this](VertexId a, VertexId b) {
      return blocks_[a].first < blocks_[b].first;
    });
    uint32_t size = 0;
    for (const VertexId v : order) {
      Block& b = blocks_[v];
      if (b.first != size) {
        // A move down: std::copy allows the ranges to overlap that way.
        const auto from = arcs_.begin() + b.first;
        std::copy(from, from + b.count, arcs_.begin() + size);
        b.first = size;
      }
      size += b.capacity;
    }
    arcs_.resize(size);
    const size_t used = size + need;
    if (4 * used > 3 * arcs_.capacity()) arcs_.reserve(used + used / 2);
  }

  std::vector<OverlayArc> arcs_;
  std::vector<Block> blocks_;
};

// Bounded local Dijkstra over the overlay that skips the vertex being
// contracted; used to find witness paths certifying that a shortcut is
// unnecessary. Truncation (settle limit) errs on the side of adding
// redundant shortcuts, never on incorrectness.
//
// A search touches a few dozen vertices of the overlay, so its state is
// sized by what it touches, not by the graph: a hash table gives each
// vertex the run touches a dense local id, the per-vertex state is held
// per local id, and the heap is an IndexedHeap over local ids. The heap
// compares keys only, so a search over renamed items pushes, pops and
// breaks ties exactly as one over vertex ids.
class WitnessSearch {
 public:
  WitnessSearch() : heap_(kInitialCapacity) { Resize(kInitialCapacity); }

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
    const std::span<const OverlayArc> neighbors = overlay.Neighbors(v);
    const OverlayArc& from = neighbors[i];
    heap_.Clear();
    local_.clear();
    if (++generation_ == 0) {
      std::fill(table_.begin(), table_.end(), TableSlot{});
      generation_ = 1;
    }
    Distance bound = 0;
    Distance target_bound = 0;
    uint32_t undecided = 0;
    for (size_t j = 0; j < neighbors.size(); ++j) {
      if (j == i) continue;
      const Distance via = Distance{from.weight} + neighbors[j].weight;
      bound = std::max(bound, via);
      if (j < i) continue;
      target_bound = std::max(target_bound, via);
      LocalState& target = local_[LocalId(neighbors[j].to)];
      target.via = via;
      target.pending = true;
      ++undecided;
    }

    const uint32_t source = LocalId(from.to);
    local_[source].dist = 0;
    heap_.Push(source, 0);
    uint32_t settled = 0;
    // A target is decided once it is reached within its via distance
    // (distances only fall) or popped (its distance is final). Once the
    // heap minimum passes every via distance, no undecided target can
    // come within its own. A local id is reached once it is pushed.
    while (undecided > 0 && !heap_.Empty() && settled < settle_limit) {
      if (heap_.MinKey() > target_bound) break;
      const uint32_t u = heap_.PopMin();
      ++settled;
      if (local_[u].pending) {
        local_[u].pending = false;
        --undecided;
      }
      const Distance du = local_[u].dist;
      for (const OverlayArc& a : overlay.Neighbors(local_[u].vertex)) {
        if (a.to == v) continue;
        const Distance cand = du + a.weight;
        if (cand > bound) continue;
        const uint32_t x = LocalId(a.to);
        LocalState& reached = local_[x];
        if (!heap_.Seen(x)) {
          reached.dist = cand;
          heap_.Push(x, cand);
        } else if (heap_.Contains(x) && cand < reached.dist) {
          reached.dist = cand;
          heap_.DecreaseKey(x, cand);
        } else {
          continue;
        }
        if (reached.pending && cand <= reached.via) {
          reached.pending = false;
          --undecided;
        }
      }
    }
  }

  // Best distance found for v by the last Run (kInfDistance if unreached).
  Distance DistanceTo(VertexId v) const {
    const TableSlot& slot = table_[SlotOf(v)];
    return slot.generation == generation_ && heap_.Seen(slot.local)
               ? local_[slot.local].dist
               : kInfDistance;
  }

 private:
  static constexpr uint32_t kInitialCapacity = 64;

  // One touched vertex of the current run.
  struct LocalState {
    VertexId vertex;
    // True while the vertex is a target whose pair is undecided.
    bool pending;
    // Tentative distance; valid once the local id is pushed.
    Distance dist;
    // Path length through the contracted vertex, for a target.
    Distance via;
  };
  // Holds a vertex of the current run while generation == generation_.
  struct TableSlot {
    uint32_t generation = 0;
    VertexId vertex = 0;
    uint32_t local = 0;
  };

  // The slot holding v in this run, or the free slot where v would go.
  uint32_t SlotOf(VertexId v) const {
    auto s = static_cast<uint32_t>((v * 0x9E3779B97F4A7C15ull) >> shift_);
    while (table_[s].generation == generation_ && table_[s].vertex != v) {
      s = (s + 1) & mask_;
    }
    return s;
  }

  // v's local id in this run, assigning the next one if v has none.
  uint32_t LocalId(VertexId v) {
    const uint32_t s = SlotOf(v);
    if (table_[s].generation == generation_) return table_[s].local;
    const auto local = static_cast<uint32_t>(local_.size());
    if (local == capacity_) {
      Resize(2 * capacity_);
      return LocalId(v);
    }
    table_[s] = TableSlot{generation_, v, local};
    local_.push_back(LocalState{v, false, 0, 0});
    return local;
  }

  // Makes room for `capacity` local ids, keeping those of the current
  // run. The table stays at most half full.
  void Resize(uint32_t capacity) {
    capacity_ = capacity;
    local_.reserve(capacity);
    heap_.Grow(capacity);
    const uint32_t slots = 2 * capacity;
    table_.assign(slots, TableSlot{});
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
    for (uint32_t local = 0; local < local_.size(); ++local) {
      const VertexId v = local_[local].vertex;
      table_[SlotOf(v)] = TableSlot{generation_, v, local};
    }
  }

  IndexedHeap<Distance> heap_;
  std::vector<LocalState> local_;
  std::vector<TableSlot> table_;
  uint32_t capacity_ = 0;
  uint32_t mask_ = 0;
  int shift_ = 0;
  uint32_t generation_ = 1;
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
        deleted_neighbours_(g.NumVertices(), 0),
        queue_(g.NumVertices()) {
    if (config_.heuristic == OrderingHeuristic::kRandom) {
      random_priority_.resize(g.NumVertices());
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
    // Room for the m original edges and as many shortcuts: road networks
    // add fewer (0.79–0.94 m on the ten datasets), so the list is never
    // copied; a graph that needs more grows it by doubling.
    result.edges.reserve(2 * graph_.NumEdges());
    for (VertexId v = 0; v < n; ++v) {
      for (const Arc& a : graph_.Neighbors(v)) {
        if (v < a.to) {
          result.edges.push_back(TaggedEdge{v, a.to, a.weight, kInvalidVertex});
        }
      }
    }

    {
      const std::vector<int64_t> initial = InitialPriorities();
      for (VertexId v = 0; v < n; ++v) queue_.Push(v, initial[v]);
    }

    WitnessSearch witness;
    std::vector<PlannedShortcut> scratch;
    uint32_t next_rank = 0;
    while (!queue_.Empty()) {
      VertexId v = queue_.PopMin();
      // Lazy re-evaluation: contraction of other vertices may have changed
      // v's priority; contract only if v is still (weakly) minimal.
      int64_t p = Priority(v, &witness, &scratch);
      if (!queue_.Empty() && p > queue_.MinKey()) {
        queue_.Push(v, p);
        continue;
      }
      // Contract v: `scratch` holds the shortcuts Priority() just planned.
      for (const PlannedShortcut& sc : scratch) {
        const Weight w = ShortcutWeight(sc);
        overlay_.AddOrImprove(sc.u, sc.v, w);
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
    std::atomic<uint32_t> cursor{0};
    std::vector<std::exception_ptr> failures(num_threads);
    auto worker = [&](size_t t) {
      try {
        WitnessSearch witness;
        for (;;) {
          const uint32_t begin =
              cursor.fetch_add(kInitialPassChunk, std::memory_order_relaxed);
          if (begin >= n) return;
          const uint32_t end = std::min(begin + kInitialPassChunk, n);
          for (VertexId v = begin; v < end; ++v) {
            priorities[v] = Priority(v, &witness, nullptr);
          }
        }
      } catch (...) {
        failures[t] = std::current_exception();
      }
    };
    {
      // jthreads join when the scope ends, also if starting one throws.
      // Thread 0 is this thread.
      std::vector<std::jthread> threads;
      threads.reserve(num_threads - 1);
      for (size_t t = 1; t < num_threads; ++t) threads.emplace_back(worker, t);
      worker(0);
    }
    for (const std::exception_ptr& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
    return priorities;
  }

  // Computes v's current priority. Unless `shortcuts` is null, fills it
  // with the shortcuts v's contraction would create right now; a null
  // one only counts them, so weighing a vertex of degree d takes O(d)
  // memory, not O(d²).
  int64_t Priority(VertexId v, WitnessSearch* witness,
                   std::vector<PlannedShortcut>* shortcuts) const {
    if (shortcuts != nullptr) shortcuts->clear();
    const std::span<const OverlayArc> neighbors = overlay_.Neighbors(v);
    int64_t num_shortcuts = 0;

    // For each neighbour u, one witness search decides the pairs (u, w)
    // with w after u; the last neighbour has none left to decide.
    for (size_t i = 0; i + 1 < neighbors.size(); ++i) {
      const OverlayArc& nu = neighbors[i];
      witness->Run(overlay_, v, i, config_.witness_settle_limit);
      for (size_t j = i + 1; j < neighbors.size(); ++j) {
        const OverlayArc& nw = neighbors[j];
        const Distance via = Distance{nu.weight} + nw.weight;
        if (witness->DistanceTo(nw.to) > via) {
          ++num_shortcuts;
          if (shortcuts != nullptr) {
            shortcuts->push_back(PlannedShortcut{nu.to, nw.to, via});
          }
        }
      }
    }

    if (config_.heuristic == OrderingHeuristic::kRandom) {
      return random_priority_[v];
    }
    PriorityTerms terms;
    terms.edge_difference =
        num_shortcuts - static_cast<int64_t>(neighbors.size());
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
  std::vector<uint32_t> deleted_neighbours_;
  // Drawn once per vertex under kRandom, empty otherwise.
  std::vector<int64_t> random_priority_;
  IndexedHeap<int64_t> queue_;
};

}  // namespace

ContractionResult ContractGraph(const Graph& g, const ChConfig& config) {
  return Contractor(g, config).Run();
}

}  // namespace roadnet
