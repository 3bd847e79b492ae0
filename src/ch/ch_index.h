#ifndef ROADNET_CH_CH_INDEX_H_
#define ROADNET_CH_CH_INDEX_H_

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ch/contraction.h"
#include "ch/node_order.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "routing/path_index.h"

namespace roadnet {

// Contraction Hierarchies (Geisberger et al. 2008; paper Section 3.2).
//
// Preprocessing contracts all vertices in heuristic order, producing an
// augmented graph of original edges plus tagged shortcuts. A query runs a
// bidirectional Dijkstra that only relaxes edges leading to higher-ranked
// vertices; the two upward searches meet at the highest-ranked vertex of
// the shortest path. Shortest path queries additionally unpack shortcuts
// recursively through their middle-vertex tags.
//
// Memory layout (see DESIGN.md "CH memory layout"): internally every
// vertex is identified by its contraction rank, so the dense high-rank
// core both upward searches converge into occupies one contiguous stretch
// of every per-vertex array. The upward adjacency is split
// structure-of-arrays: an 8-byte (target, weight) record per arc on the
// hot search path, and a cold parallel unpack record (child arc indices)
// touched only by path queries. The search stores the index of the
// relaxed arc next to the parent vertex, so unpacking walks precomputed
// arc indices and never performs an edge lookup. External VertexIds are
// translated to rank space only at the API boundary. Search state holds
// distances in 32 bits whenever the hierarchy's longest upward path
// leaves room for the 32-bit "unreached" value, and in 64 bits otherwise.
//
// The hierarchy is immutable after preprocessing (stall-on-demand is a
// ChConfig build option, not a setter); all search scratch lives in the
// QueryContext, so one index serves any number of threads.
class ChIndex : public PathIndex {
 public:
  // Runs CH preprocessing on g. The graph must outlive the index.
  ChIndex(const Graph& g, const ChConfig& config);
  explicit ChIndex(const Graph& g) : ChIndex(g, ChConfig{}) {}

  // Adopts a precomputed contraction instead of running one. bench_hl
  // builds this index and its AoS copy of the old layout from one, so
  // the comparison isolates layout; tests adopt hand-built hierarchies.
  ChIndex(const Graph& g, ContractionResult result, const ChConfig& config);

  // Writes the preprocessed hierarchy (ranks + rank-space upward arrays)
  // so query servers can skip preprocessing.
  void Serialize(std::ostream& out) const;

  // Restores a serialized hierarchy over the same graph it was built on
  // (vertex count is validated; the caller is responsible for the graphs
  // being identical). Returns nullptr on malformed input.
  static std::unique_ptr<ChIndex> Deserialize(const Graph& g,
                                              std::istream& in,
                                              std::string* error);

  std::string Name() const override { return "CH"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  size_t IndexBytes() const override;

  // Whether queries use the stall-on-demand pruning (ChConfig option).
  bool StallOnDemand() const { return stall_on_demand_; }

  uint32_t RankOf(VertexId v) const { return rank_[v]; }
  VertexId VertexAtRank(uint32_t r) const { return order_[r]; }
  size_t NumShortcuts() const { return num_shortcuts_; }

  // Forward upward search space of s: every vertex settled by the upward
  // Dijkstra (external ids), with its distance, appended to *out (which
  // is cleared first). The building block of the many-to-many engine TNR
  // preprocessing uses (Appendix B remedy: "we construct contraction
  // hierarchies in advance to reduce the computation cost of deriving
  // access nodes"). Reuses ctx's scratch, so repeated calls with the same
  // context and out vector are allocation-free; thread-safe with one
  // context per thread like the query API.
  void UpwardSearchSpace(QueryContext* ctx, VertexId s,
                         std::vector<std::pair<VertexId, Distance>>* out)
      const;

  // Hot half of an upward arc, in rank space: both searches touch only
  // this 8-byte record per relaxation. `target` is the rank of the
  // higher-ranked endpoint; the source rank is implicit in the CSR
  // position.
  struct HotArc {
    uint32_t target;
    Weight weight;
  };

  // The upward arcs of rank r, sorted by target rank. Hub-label
  // construction derives every label from these.
  std::span<const HotArc> UpwardArcs(uint32_t r) const {
    return {arcs_.data() + up_offsets_[r], up_offsets_[r + 1] - up_offsets_[r]};
  }

 private:
  // Cold half, touched only by path unpacking. A shortcut stores the arc
  // indices of its two halves (both arcs of the middle vertex, which is
  // ranked below either endpoint): `lo` leads from the middle to the
  // arc's source, `hi` from the middle to the arc's target. An original
  // edge stores {kOriginalArc, source rank} instead, giving the unpacker
  // O(1) access to the endpoint the hot record omits.
  struct ArcUnpack {
    uint32_t lo;
    uint32_t hi;
  };
  static constexpr uint32_t kOriginalArc = UINT32_MAX;

  // An entry of the frontier heap: the key plus the rank it belongs to.
  // 8 bytes with 32-bit distances, 16 with 64-bit ones.
  template <typename D>
  struct HeapEntry {
    D key;
    uint32_t rank;
  };

  // One direction of the bidirectional upward search, in rank space,
  // holding distances as D: uint32_t when every upward path of the
  // hierarchy is shorter than UINT32_MAX (see narrow_), Distance
  // otherwise. There is no generation stamp: unreached is encoded as
  // dist == kUnreached, and each search starts by resetting exactly
  // the entries the previous one touched (`touched`), whose lines are
  // still warm. Only `dist` needs resetting — `parent_arc` is always
  // written at first reach before anything reads it. The frontier is a
  // 4-ary min-heap of {key, rank} entries in the flat `heap` vector; no
  // per-vertex array records where a queued vertex sits in it, since
  // decrease-key finds the entry by scanning the heap (see HeapDecrease).
  template <typename D>
  struct SearchSide {
    static constexpr D kUnreached = std::numeric_limits<D>::max();

    std::vector<HeapEntry<D>> heap;
    std::vector<D> dist;
    // The arc that reached each rank (kOriginalArc at the roots); it
    // replaces the parent vertex — the arc's source is recovered in O(1)
    // from the cold unpack record (see ArcSource), so no parent array
    // exists at all. Kept out of the distance array on purpose: the
    // search's stalls are scattered *loads* of tentative distances (stall
    // scan, meet check, relaxation), so those pack by themselves, sixteen
    // to a cache line at 32 bits, while this array is only stored to on
    // the reach/push path — stores retire through the store buffer
    // without stalling the search.
    std::vector<uint32_t> parent_arc;
    // Ranks whose dist was written this search, in first-reach order;
    // Reset() restores exactly these entries to kUnreached.
    std::vector<uint32_t> touched;
    // Per-settle scratch: arc indices buffered by the fused
    // stall-and-relax scan, committed only if the vertex is not stalled.
    std::vector<uint32_t> relax_buf;

    explicit SearchSide(uint32_t n);

    // Prepares the side for a new search. The touched entries' lines are
    // still cached from the search that wrote them, so this is far
    // cheaper than the O(n) clear it replaces conceptually.
    void Reset() {
      for (uint32_t r : touched) {
        dist[r] = kUnreached;
      }
      touched.clear();
      heap.clear();
    }

    bool HeapEmpty() const { return heap.empty(); }
    D MinKey() const { return heap.front().key; }
    uint32_t MinRank() const { return heap.front().rank; }

    void HeapPush(uint32_t rank, D key) {
      heap.push_back(HeapEntry<D>{key, rank});
      SiftUp(static_cast<uint32_t>(heap.size() - 1), HeapEntry<D>{key, rank});
    }

    // Lowers the key of a queued rank. The entry is found by a scan: the
    // frontier of an upward search stays short (13 entries on average at
    // a decrease over W-US′'s Q1..Q10), so scanning lines the heap
    // already holds in L1 costs about what storing each moved entry's
    // slot into a per-vertex position array did (queries time at
    // parity), and that array's 4 bytes per vertex per side are gone.
    void HeapDecrease(uint32_t rank, D key) {
      uint32_t pos = 0;
      while (heap[pos].rank != rank) {
        ++pos;
        assert(pos < heap.size());
      }
      SiftUp(pos, HeapEntry<D>{key, rank});
    }

    // Returns the popped entry: the key is the vertex's final distance
    // (kept in sync by decrease-key), so the caller never has to load
    // dist[rank] — one scattered read fewer per settle.
    HeapEntry<D> HeapPopMin() {
      const HeapEntry<D> top = heap.front();
      const HeapEntry<D> last = heap.back();
      heap.pop_back();
      if (!heap.empty()) SiftDown(last);
      return top;
    }

   private:
    static constexpr uint32_t kArity = 4;

    void SiftUp(uint32_t pos, HeapEntry<D> e) {
      while (pos > 0) {
        const uint32_t parent = (pos - 1) / kArity;
        if (heap[parent].key <= e.key) break;
        heap[pos] = heap[parent];
        pos = parent;
      }
      heap[pos] = e;
    }

    void SiftDown(HeapEntry<D> e) {
      const uint32_t n = static_cast<uint32_t>(heap.size());
      uint32_t pos = 0;
      while (true) {
        const uint32_t first_child = pos * kArity + 1;
        if (first_child >= n) break;
        const uint32_t last_child =
            first_child + kArity < n ? first_child + kArity : n;
        uint32_t best = first_child;
        for (uint32_t c = first_child + 1; c < last_child; ++c) {
          if (heap[c].key < heap[best].key) best = c;
        }
        if (heap[best].key >= e.key) break;
        heap[pos] = heap[best];
        pos = best;
      }
      heap[pos] = e;
    }
  };

  template <typename D>
  struct Context : QueryContext {
    explicit Context(uint32_t n) : forward(n), backward(n) {}

    SearchSide<D> forward;
    SearchSide<D> backward;
    // PathQuery's unpacking scratch, reused across queries so a path
    // query allocates only the exact-size Path it returns: the forward
    // tree's arcs from the apex down to s, and the unpacked vertices.
    std::vector<uint32_t> up_arcs;
    Path path;
  };

  // Calls f with ctx cast to the context type NewContext created for
  // this index's distance width.
  template <typename F>
  decltype(auto) WithContext(QueryContext* ctx, F&& f) const {
    if (narrow_) return f(static_cast<Context<uint32_t>*>(ctx));
    return f(static_cast<Context<Distance>*>(ctx));
  }

  // Builds the rank-space arrays from a contraction run.
  void BuildFrom(ContractionResult result);

  // Sets narrow_ from the hierarchy's longest upward path. Every
  // tentative distance of an upward search is the length of such a path.
  void ChooseSearchWidth();

  // Index of the arc src -> target (both ranks, src < target), or
  // kOriginalArc if absent. Build-time only: queries never search.
  uint32_t FindArcIndex(uint32_t src, uint32_t target) const;

  // Source rank of an arc, read from the cold records: an original edge
  // stores it directly, a shortcut's lo half targets it. O(1), no search.
  uint32_t ArcSource(uint32_t arc) const {
    const ArcUnpack& u = unpack_[arc];
    return u.lo == kOriginalArc ? u.hi : arcs_[u.lo].target;
  }

  // Runs the bidirectional upward search between ranks s and t; returns
  // the best meeting rank (kInvalidVertex if unreachable) and its
  // distance in *out_dist.
  template <typename D>
  uint32_t Search(Context<D>* ctx, uint32_t s, uint32_t t,
                  Distance* out_dist) const;
  template <typename D>
  Path PathIn(Context<D>* ctx, VertexId s, VertexId t) const;
  template <typename D>
  void UpwardSearchSpaceIn(
      Context<D>* ctx, VertexId s,
      std::vector<std::pair<VertexId, Distance>>* out) const;

  // Appends the original-graph expansion of the arc to *out as external
  // ids, excluding the entry endpoint. `down` selects the traversal
  // direction: false walks source -> target (the forward tree), true
  // target -> source (the backward tree). Pure array walking over the
  // precomputed child arc indices; no edge lookups. Returns the number of
  // shortcuts it unpacked.
  uint64_t EmitArc(uint32_t arc, bool down, Path* out) const;

  // Deserialization constructor: arrays filled by the factory.
  struct DeserializeTag {};
  ChIndex(const Graph& g, DeserializeTag);

  const Graph& graph_;
  bool stall_on_demand_ = true;
  // Whether search state holds distances in 32 bits: set when the
  // longest upward path is below UINT32_MAX, the 32-bit "unreached".
  // Otherwise (weights near 2^32) the same search runs on 64-bit state.
  bool narrow_ = false;
  std::vector<uint32_t> rank_;   // external id -> rank
  std::vector<VertexId> order_;  // rank -> external id
  std::vector<uint32_t> up_offsets_;
  std::vector<HotArc> arcs_;
  std::vector<ArcUnpack> unpack_;
  size_t num_shortcuts_ = 0;
};

}  // namespace roadnet

#endif  // ROADNET_CH_CH_INDEX_H_
