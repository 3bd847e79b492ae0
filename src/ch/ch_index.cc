#include "ch/ch_index.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "io/binary.h"
#include "io/crc32.h"
#include "util/bytes.h"

// The relaxation loop prefetches the next frontier vertex's arc block one
// pop ahead; a no-op on compilers without the intrinsic.
#if defined(__GNUC__) || defined(__clang__)
#define ROADNET_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define ROADNET_PREFETCH(addr) ((void)0)
#endif

namespace roadnet {

ChIndex::ChIndex(const Graph& g, const ChConfig& config)
    : ChIndex(g, ContractGraph(g, config), config) {}

ChIndex::ChIndex(const Graph& g, ContractionResult result,
                 const ChConfig& config)
    : graph_(g), stall_on_demand_(config.stall_on_demand) {
  BuildFrom(std::move(result));
  ChooseSearchWidth();
}

void ChIndex::BuildFrom(ContractionResult result) {
  const uint32_t n = graph_.NumVertices();
  rank_ = std::move(result.rank);
  num_shortcuts_ = result.num_shortcuts;
  order_.assign(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) order_[rank_[v]] = v;

  // Build the rank-space upward CSR: each augmented edge is stored once,
  // at its lower-ranked endpoint, pointing to the higher-ranked one. Both
  // search directions and path unpacking share this structure.
  std::vector<uint32_t> degree(n, 0);
  for (const TaggedEdge& e : result.edges) {
    ++degree[std::min(rank_[e.u], rank_[e.v])];
  }
  up_offsets_.assign(n + 1, 0);
  for (uint32_t r = 0; r < n; ++r) {
    up_offsets_[r + 1] = up_offsets_[r] + degree[r];
  }
  const uint32_t num_arcs = up_offsets_[n];
  arcs_.resize(num_arcs);
  // Middle tags in rank space, parallel to arcs_, consumed below when the
  // cold unpack records are resolved to arc indices.
  std::vector<uint32_t> middle(num_arcs);
  std::vector<uint32_t> cursor(up_offsets_.begin(), up_offsets_.end() - 1);
  for (const TaggedEdge& e : result.edges) {
    uint32_t lo = rank_[e.u], hi = rank_[e.v];
    if (lo > hi) std::swap(lo, hi);
    const uint32_t idx = cursor[lo]++;
    arcs_[idx] = HotArc{hi, e.weight};
    middle[idx] = e.middle == kInvalidVertex ? kInvalidVertex : rank_[e.middle];
  }
  // Sort each arc block by target rank: relaxations then touch the
  // per-vertex arrays in ascending address order, and the build-time arc
  // lookups below can binary search.
  for (uint32_t r = 0; r < n; ++r) {
    const uint32_t begin = up_offsets_[r], end = up_offsets_[r + 1];
    std::vector<std::pair<HotArc, uint32_t>> block;
    block.reserve(end - begin);
    for (uint32_t i = begin; i < end; ++i) {
      block.emplace_back(arcs_[i], middle[i]);
    }
    std::sort(block.begin(), block.end(),
              [](const auto& a, const auto& b) {
                return a.first.target < b.first.target;
              });
    for (uint32_t i = begin; i < end; ++i) {
      arcs_[i] = block[i - begin].first;
      middle[i] = block[i - begin].second;
    }
  }
  // Resolve every shortcut's middle tag into the arc indices of its two
  // halves once, here, so path unpacking never has to look an edge up. A
  // middle is contracted before either endpoint, so both halves live in
  // the middle's (strictly earlier) arc block — unpack recursion walks
  // strictly decreasing arc indices and always terminates.
  unpack_.resize(num_arcs);
  for (uint32_t r = 0; r < n; ++r) {
    for (uint32_t i = up_offsets_[r]; i < up_offsets_[r + 1]; ++i) {
      if (middle[i] == kInvalidVertex) {
        unpack_[i] = ArcUnpack{kOriginalArc, r};
        continue;
      }
      const uint32_t lo = FindArcIndex(middle[i], r);
      const uint32_t hi = FindArcIndex(middle[i], arcs_[i].target);
      assert(lo != kOriginalArc && hi != kOriginalArc);
      unpack_[i] = ArcUnpack{lo, hi};
    }
  }
}

void ChIndex::ChooseSearchWidth() {
  // The longest upward path, in one pass over the arcs: they lead to
  // higher ranks, so walking the ranks downward finds each target's
  // longest path final before any arc into it is read. A path has fewer
  // than n arcs of under 2^32 each, so no sum wraps.
  const uint32_t n = static_cast<uint32_t>(order_.size());
  std::vector<Distance> longest(n, 0);
  Distance most = 0;
  for (uint32_t r = n; r-- > 0;) {
    for (const HotArc& a : UpwardArcs(r)) {
      longest[r] = std::max(longest[r], a.weight + longest[a.target]);
    }
    most = std::max(most, longest[r]);
  }
  narrow_ = most < SearchSide<uint32_t>::kUnreached;
}

uint32_t ChIndex::FindArcIndex(uint32_t src, uint32_t target) const {
  const auto first = arcs_.begin() + up_offsets_[src];
  const auto last = arcs_.begin() + up_offsets_[src + 1];
  const auto it = std::lower_bound(
      first, last, target,
      [](const HotArc& a, uint32_t t) { return a.target < t; });
  if (it == last || it->target != target) return kOriginalArc;
  return static_cast<uint32_t>(it - arcs_.begin());
}

namespace {
constexpr char kChMagic[8] = {'R', 'N', 'E', 'T', 'C', 'H', 'I', 'X'};
// Version 3 stores the rank-permuted SoA layout (rank permutation,
// rank-space hot arcs, cold unpack records) under the version-2 CRC32
// trailer; older files are rejected with a re-run hint since their
// original-order AoS payload no longer matches the query core.
constexpr uint32_t kChVersion = 3;
}  // namespace

ChIndex::ChIndex(const Graph& g, DeserializeTag) : graph_(g) {}

template <typename D>
ChIndex::SearchSide<D>::SearchSide(uint32_t n)
    : dist(n, kUnreached), parent_arc(n) {
  // The settle loops append every freshly reached rank to `touched`.
  // Reserving past any road-network CH search-space size here means a
  // reused context's queries never grow the vector mid-search (R11); a
  // pathological search still grows it, but only once per context.
  constexpr uint32_t kTouchedReserve = 4096;
  touched.reserve(std::min(n, kTouchedReserve));
}

std::unique_ptr<QueryContext> ChIndex::NewContext() const {
  const uint32_t n = graph_.NumVertices();
  if (narrow_) return std::make_unique<Context<uint32_t>>(n);
  return std::make_unique<Context<Distance>>(n);
}

void ChIndex::Serialize(std::ostream& out) const {
  WriteMagic(out, kChMagic);
  WriteScalar<uint32_t>(out, kChVersion);
  std::ostringstream payload;
  WriteScalar<uint32_t>(payload, graph_.NumVertices());
  WriteScalar<uint64_t>(payload, num_shortcuts_);
  WriteVector(payload, rank_);
  WriteVector(payload, up_offsets_);
  WriteVector(payload, arcs_);
  WriteVector(payload, unpack_);
  WriteChecksummedPayload(out, payload.view());
}

std::unique_ptr<ChIndex> ChIndex::Deserialize(const Graph& g,
                                              std::istream& in,
                                              std::string* error) {
  auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (!CheckMagic(in, kChMagic)) return fail("ch: bad magic");
  uint32_t version = 0;
  if (!ReadScalar(in, &version) || version != kChVersion) {
    return fail("ch: unsupported version (re-run preprocess with this build)");
  }
  std::string buffer;
  if (!ReadChecksummedPayload(in, &buffer, "ch", error)) return nullptr;
  std::istringstream body(buffer);
  uint32_t n = 0;
  if (!ReadScalar(body, &n) || n != g.NumVertices()) {
    return fail("ch: vertex count does not match the graph");
  }
  std::unique_ptr<ChIndex> index(new ChIndex(g, DeserializeTag{}));
  uint64_t shortcuts = 0;
  if (!ReadScalar(body, &shortcuts)) return fail("ch: truncated header");
  index->num_shortcuts_ = shortcuts;
  if (!ReadVector(body, &index->rank_) || index->rank_.size() != n) {
    return fail("ch: bad rank block");
  }
  if (!ReadVector(body, &index->up_offsets_) ||
      index->up_offsets_.size() != n + 1) {
    return fail("ch: bad offset block");
  }
  if (!ReadVector(body, &index->arcs_) ||
      index->arcs_.size() != index->up_offsets_[n]) {
    return fail("ch: bad arc block");
  }
  if (!ReadVector(body, &index->unpack_) ||
      index->unpack_.size() != index->arcs_.size()) {
    return fail("ch: bad unpack block");
  }
  // Structural validation so corrupted input cannot cause out-of-range
  // indexing or unbounded recursion at query time.
  index->order_.assign(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t r = index->rank_[v];
    if (r >= n || index->order_[r] != kInvalidVertex) {
      return fail("ch: ranks are not a permutation");
    }
    index->order_[r] = v;
  }
  if (n > 0 && index->up_offsets_[0] != 0) {
    return fail("ch: offsets do not start at zero");
  }
  for (uint32_t r = 0; r < n; ++r) {
    if (index->up_offsets_[r] > index->up_offsets_[r + 1]) {
      return fail("ch: offsets not monotone");
    }
    for (uint32_t i = index->up_offsets_[r]; i < index->up_offsets_[r + 1];
         ++i) {
      const HotArc& a = index->arcs_[i];
      if (a.target >= n || a.target <= r) {
        return fail("ch: arc target not above its source rank");
      }
      const ArcUnpack& u = index->unpack_[i];
      if (u.lo == kOriginalArc) {
        if (u.hi != r) return fail("ch: original-edge source mismatch");
      } else if (u.lo >= index->up_offsets_[r] ||
                 u.hi >= index->up_offsets_[r] ||
                 index->arcs_[u.lo].target != r ||
                 index->arcs_[u.hi].target != a.target) {
        return fail("ch: shortcut unpack arcs do not match endpoints");
      }
    }
  }
  index->ChooseSearchWidth();
  return index;
}

size_t ChIndex::IndexBytes() const {
  return VectorBytes(rank_) + VectorBytes(order_) + VectorBytes(up_offsets_) +
         VectorBytes(arcs_) + VectorBytes(unpack_);
}

template <typename D>
uint32_t ChIndex::Search(Context<D>* ctx, uint32_t s, uint32_t t,
                         Distance* out_dist) const {
  ctx->counters.Reset();
  SearchSide<D>& forward = ctx->forward;
  SearchSide<D>& backward = ctx->backward;
  // Reset at search start, not end: PathQuery reads the parent-arc chains
  // after Search returns, so the previous search's state must survive it.
  forward.Reset();
  backward.Reset();

  forward.dist[s] = 0;
  forward.parent_arc[s] = kOriginalArc;
  forward.touched.push_back(s);
  forward.HeapPush(s, 0);

  backward.dist[t] = 0;
  backward.parent_arc[t] = kOriginalArc;
  backward.touched.push_back(t);
  backward.HeapPush(t, 0);
  // Work is counted in locals and added to the context once, at the end:
  // through ctx, every increment would be a store the loop must keep.
  uint64_t pops = 0;
  uint64_t relaxed = 0;
  uint64_t pushes = 2;

  Distance best = (s == t) ? 0 : kInfDistance;
  uint32_t meet = (s == t) ? s : kInvalidVertex;

  // Tentative distances are lengths of upward paths, which fit D by
  // narrow_'s rule; `best` adds two of them and stays 64-bit.
  SearchSide<D>* sides[2] = {&forward, &backward};
  while (true) {
    // A side stays active until its frontier minimum proves useless. Unlike
    // plain bidirectional Dijkstra, each side must run until its own
    // frontier exceeds the best tentative distance (Section 3.2: "the two
    // traversals may not stop immediately after they meet").
    SearchSide<D>* side = nullptr;
    for (SearchSide<D>* cand : sides) {
      if (cand->HeapEmpty() || cand->MinKey() >= best) continue;
      if (side == nullptr || cand->MinKey() < side->MinKey()) {
        side = cand;
      }
    }
    if (side == nullptr) break;
    SearchSide<D>* other = (side == &forward) ? &backward : &forward;

    const HeapEntry<D> top = side->HeapPopMin();
    const uint32_t u = top.rank;
    const D du = top.key;
    ++pops;
    // Overlap the heap bookkeeping of this settle with the memory fetches
    // of the next frontier vertex: its arc block and its meet-check line
    // in the opposite search's state. Both addresses are known one pop
    // ahead, unlike the relax targets, so this hides most of the latency
    // of the settle loop's dependency chain.
    if (!side->HeapEmpty()) {
      const uint32_t next = side->MinRank();
      ROADNET_PREFETCH(arcs_.data() + up_offsets_[next]);
      ROADNET_PREFETCH(&other->dist[next]);
    }
    // Meet detection at settle time (not per relaxation): du is final, and
    // at whichever side settles the optimal apex second the opposite
    // tentative distance is final too, so the minimum over these sums is
    // exactly dist(s, t). Checked before stalling — a stalled settle is a
    // valid (if suboptimal) meeting candidate, and skipping it here would
    // cost correctness of the bound below.
    {
      const D od = other->dist[u];
      if (od != SearchSide<D>::kUnreached) {
        const Distance total = Distance{du} + od;
        if (total < best) {
          best = total;
          meet = u;
        }
      }
    }
    const uint32_t arc_begin = up_offsets_[u];
    const uint32_t arc_end = up_offsets_[u + 1];
    D* const dist = side->dist.data();
    uint32_t* const parent_arc = side->parent_arc.data();
    uint32_t nbuf = 0;
    if (stall_on_demand_) {
      // Fused stall + relax scan. u is stalled if some target already
      // offers a shorter way into it (td + w < du): the true shortest
      // path to u then descends from that higher-ranked vertex, u cannot
      // lie on a shortest up-down path, and its arcs need not be relaxed
      // (stall-on-demand). One pass over the block reads each target's
      // distance once, checking stall evidence and buffering
      // improvements; nothing is committed until the vertex proves
      // non-stalled, so an abort wastes no heap work. The td < du
      // pre-test doubles as the reached check: unreached entries hold
      // kUnreached, which wraps if the weight is added blindly. Past it,
      // td + w < du + w, an upward path's length, so the sum fits D.
      if (side->relax_buf.size() < arc_end - arc_begin) {
        side->relax_buf.resize(arc_end - arc_begin);
      }
      uint32_t* const buf = side->relax_buf.data();
      bool stalled = false;
      for (uint32_t arc = arc_begin; arc < arc_end; ++arc) {
        const HotArc a = arcs_[arc];
        const D td = dist[a.target];
        if (td < du && td + a.weight < du) {
          stalled = true;
          break;
        }
        const D cand = du + a.weight;
        if (cand < td && cand < best) buf[nbuf++] = arc;
      }
      if (stalled) continue;
    } else {
      if (side->relax_buf.size() < arc_end - arc_begin) {
        side->relax_buf.resize(arc_end - arc_begin);
      }
      uint32_t* const buf = side->relax_buf.data();
      for (uint32_t arc = arc_begin; arc < arc_end; ++arc) {
        const HotArc a = arcs_[arc];
        const D cand = du + a.weight;
        if (cand < dist[a.target] && cand < best) buf[nbuf++] = arc;
      }
    }
    relaxed += arc_end - arc_begin;
    for (uint32_t i = 0; i < nbuf; ++i) {
      const uint32_t arc = side->relax_buf[i];
      const HotArc a = arcs_[arc];
      const D cand = du + a.weight;
      D& d = dist[a.target];
      // Re-checked: parallel arcs to one target may buffer twice.
      if (cand < d) {
        const bool fresh = d == SearchSide<D>::kUnreached;
        d = cand;
        parent_arc[a.target] = arc;
        if (fresh) {
          side->touched.push_back(a.target);
          side->HeapPush(a.target, cand);
        } else {
          // Still queued: a settled distance is final with non-negative
          // weights, so an improvable vertex must be in the heap.
          side->HeapDecrease(a.target, cand);
        }
        ++pushes;
      }
    }
  }
  // Every pop settles: a stalled vertex is settled, then skipped.
  ctx->counters.HeapPop(pops);
  ctx->counters.Settle(pops);
  ctx->counters.RelaxEdge(relaxed);
  ctx->counters.HeapPush(pushes);
  *out_dist = best;
  return meet;
}

Distance ChIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                VertexId t) const {
  Distance d = kInfDistance;
  WithContext(ctx, [&](auto* c) { Search(c, rank_[s], rank_[t], &d); });
  return d;
}

uint64_t ChIndex::EmitArc(uint32_t arc, bool down, Path* out) const {
  const ArcUnpack u = unpack_[arc];
  if (u.lo == kOriginalArc) {
    // Original edge: emit the far endpoint (source when walking down,
    // target when walking up), translated to its external id.
    out->push_back(order_[down ? u.hi : arcs_[arc].target]);
    return 0;
  }
  // Walking up traverses source -> middle -> target: the source half
  // downward (it ends, and therefore emits, the middle), then the target
  // half upward. Walking down mirrors it.
  if (down) {
    return 1 + EmitArc(u.hi, true, out) + EmitArc(u.lo, false, out);
  }
  return 1 + EmitArc(u.lo, true, out) + EmitArc(u.hi, false, out);
}

Path ChIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
                        VertexId t) const {
  return WithContext(raw_ctx, [&](auto* ctx) { return PathIn(ctx, s, t); });
}

template <typename D>
Path ChIndex::PathIn(Context<D>* ctx, VertexId s, VertexId t) const {
  // The apex's distance is the path's length: nothing below re-derives it.
  const uint32_t meet =
      Search(ctx, rank_[s], rank_[t], &ctx->path_distance);
  if (meet == kInvalidVertex) return {};
  if (s == t) return {s};

  // The parent arcs give the augmented up-down path directly: the forward
  // tree's arcs are traversed upward (source -> target), the backward
  // tree's downward, and each hop's far vertex comes from ArcSource — no
  // parent-vertex array, no edge lookups anywhere on this path. Both
  // buffers are the context's, so only the returned copy allocates.
  std::vector<uint32_t>& up_arcs = ctx->up_arcs;
  up_arcs.clear();
  for (uint32_t arc = ctx->forward.parent_arc[meet]; arc != kOriginalArc;
       arc = ctx->forward.parent_arc[ArcSource(arc)]) {
    up_arcs.push_back(arc);
  }

  Path& path = ctx->path;
  path.clear();
  path.push_back(s);
  uint64_t unpacked = 0;
  for (auto arc = up_arcs.rbegin(); arc != up_arcs.rend(); ++arc) {
    unpacked += EmitArc(*arc, /*down=*/false, &path);
  }
  for (uint32_t arc = ctx->backward.parent_arc[meet]; arc != kOriginalArc;
       arc = ctx->backward.parent_arc[ArcSource(arc)]) {
    unpacked += EmitArc(arc, /*down=*/true, &path);
  }
  ctx->counters.ShortcutUnpacked(unpacked);
  return Path(path.begin(), path.end());
}

void ChIndex::UpwardSearchSpace(
    QueryContext* raw_ctx, VertexId s,
    std::vector<std::pair<VertexId, Distance>>* out) const {
  WithContext(raw_ctx,
              [&](auto* ctx) { UpwardSearchSpaceIn(ctx, s, out); });
}

template <typename D>
void ChIndex::UpwardSearchSpaceIn(
    Context<D>* ctx, VertexId s,
    std::vector<std::pair<VertexId, Distance>>* out) const {
  // One-directional upward Dijkstra without stalling: every settled vertex
  // carries its exact upward distance, which the many-to-many bucket
  // algorithm requires. Runs in the caller's context so the n calls TNR
  // preprocessing makes stay allocation-free.
  SearchSide<D>& side = ctx->forward;
  side.Reset();
  const uint32_t start = rank_[s];
  side.dist[start] = 0;
  side.touched.push_back(start);
  side.HeapPush(start, 0);

  out->clear();
  while (!side.HeapEmpty()) {
    const HeapEntry<D> top = side.HeapPopMin();
    const uint32_t u = top.rank;
    const D du = top.key;
    // roadnet-lint: allow(R11 caller-owned output; its final size is the settled count, unknowable before the search — callers reuse the vector across calls so growth amortizes to zero)
    out->emplace_back(order_[u], du);
    for (const HotArc& a : UpwardArcs(u)) {
      const D cand = du + a.weight;
      D& d = side.dist[a.target];
      if (cand < d) {
        const bool fresh = d == SearchSide<D>::kUnreached;
        // No parent recorded: search spaces only need (vertex, distance).
        d = cand;
        if (fresh) {
          side.touched.push_back(a.target);
          side.HeapPush(a.target, cand);
        } else {
          side.HeapDecrease(a.target, cand);
        }
      }
    }
  }
}

}  // namespace roadnet
