#include "tnr/tnr_index.h"

#include <algorithm>
#include <unordered_map>

#include "ch/many_to_many.h"
#include "util/bytes.h"

namespace roadnet {

namespace {

// Locality filter radius: cells beyond each other's outer shells
// (Chebyshev distance >= 5) can be answered from the tables.
constexpr int32_t kTableRadius = 5;

// The fine (hybrid) level stores table entries for cell pairs with
// Chebyshev distance in [5, 8]: at 5..8 the coarse level may be
// inapplicable while the outer shells still overlap (Appendix E.1's
// "pre-compute dist(a1, a2) only when the outer shells of C1 and C2
// overlap").
constexpr int32_t kFineStoreMax = 8;

// Path queries walk on the table only when the outer shells of the two
// cells are disjoint (Section 3.3), i.e. Chebyshev distance >= 9.
constexpr int32_t kPathWalkRadius = 9;

}  // namespace

uint32_t DefaultGridResolution(uint32_t num_vertices) {
  if (num_vertices < 2000) return 8;
  if (num_vertices < 8000) return 16;
  if (num_vertices < 40000) return 32;
  return 64;
}

void TnrIndex::BuildLevelIndex(const Graph& g, AccessNodeSet&& raw,
                               Level* level) {
  // Global access-vertex list and id mapping.
  std::unordered_map<VertexId, uint32_t> index_of;
  for (const auto& cell : raw.cell_access) {
    for (VertexId a : cell) {
      if (index_of.emplace(a, level->access_vertices.size()).second) {
        level->access_vertices.push_back(a);
      }
    }
  }
  level->cell_access = std::move(raw.cell_access);

  // CSR over per-vertex I2 entries.
  const uint32_t n = g.NumVertices();
  level->vertex_offsets.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    level->vertex_offsets[v + 1] =
        level->vertex_offsets[v] +
        static_cast<uint32_t>(raw.vertex_access[v].size());
  }
  level->i2.resize(level->vertex_offsets[n]);
  for (VertexId v = 0; v < n; ++v) {
    uint32_t pos = level->vertex_offsets[v];
    for (const VertexAccess& va : raw.vertex_access[v]) {
      level->i2[pos++] = I2Entry{index_of.at(va.node), va.dist};
    }
  }
}

TnrIndex::TnrIndex(const Graph& g, const ChIndex* ch,
                   const TnrConfig& config)
    : graph_(g), ch_(ch), config_(config), coarse_(g, config.grid_resolution) {
  // --- Coarse level: access nodes (I2) + full pairwise table (I1). ---
  AccessNodeSet raw = config.flawed_access_nodes
                          ? ComputeAccessNodesFlawed(g, coarse_.grid, ch)
                          : ComputeAccessNodes(g, coarse_.grid, ch);
  BuildLevelIndex(g, std::move(raw), &coarse_);
  {
    const std::vector<Distance> table = ManyToManyDistances(
        ch, coarse_.access_vertices, coarse_.access_vertices);
    coarse_table_.resize(table.size());
    for (size_t i = 0; i < table.size(); ++i) {
      coarse_table_[i] = table[i] == kInfDistance
                             ? kNoEntry
                             : static_cast<uint32_t>(table[i]);
    }
  }

  // --- Optional fine level with a sparse table (hybrid grid). ---
  if (config.hybrid) {
    fine_ = std::make_unique<Level>(g, config.grid_resolution * 2);
    AccessNodeSet fine_raw =
        config.flawed_access_nodes
            ? ComputeAccessNodesFlawed(g, fine_->grid, ch)
            : ComputeAccessNodes(g, fine_->grid, ch);
    BuildLevelIndex(g, std::move(fine_raw), fine_.get());

    // Access-vertex index pairs required by any fine-applicable query.
    std::unordered_map<VertexId, uint32_t> fine_index;
    for (uint32_t i = 0; i < fine_->access_vertices.size(); ++i) {
      fine_index.emplace(fine_->access_vertices[i], i);
    }
    std::vector<std::vector<uint32_t>> partners(
        fine_->access_vertices.size());
    const CellGrid& fg = fine_->grid;
    const int32_t res = static_cast<int32_t>(fg.resolution());
    for (uint32_t c1 : fg.NonEmptyCells()) {
      const CellCoord p1 = fg.CellOf(fg.VerticesIn(c1).front());
      for (int32_t dy = -kFineStoreMax; dy <= kFineStoreMax; ++dy) {
        for (int32_t dx = -kFineStoreMax; dx <= kFineStoreMax; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) < kTableRadius) continue;
          const CellCoord p2{p1.x + dx, p1.y + dy};
          if (p2.x < 0 || p2.y < 0 || p2.x >= res || p2.y >= res) continue;
          const uint32_t c2 = fg.CellIndex(p2);
          if (c2 <= c1 || fine_->cell_access[c2].empty()) continue;
          for (VertexId a1 : fine_->cell_access[c1]) {
            for (VertexId a2 : fine_->cell_access[c2]) {
              uint32_t i1 = fine_index.at(a1);
              uint32_t i2 = fine_index.at(a2);
              if (i1 == i2) continue;
              partners[std::min(i1, i2)].push_back(std::max(i1, i2));
            }
          }
        }
      }
    }
    ManyToManyEngine engine(ch, fine_->access_vertices);
    std::vector<Distance> row;
    for (uint32_t i = 0; i < partners.size(); ++i) {
      auto& list = partners[i];
      if (list.empty()) continue;
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      engine.ComputeRow(fine_->access_vertices[i], &row);
      for (uint32_t j : list) fine_table_.emplace(PairKey(i, j), row[j]);
    }
  }

  // --- Fallback wiring. ---
  if (config.fallback == TnrFallback::kCh) {
    fallback_ = ch_;
  } else {
    bidi_fallback_ = std::make_unique<BidirectionalDijkstra>(g);
    fallback_ = bidi_fallback_.get();
  }
}

std::unique_ptr<QueryContext> TnrIndex::NewContext() const {
  auto ctx = std::make_unique<Context>();
  ctx->fallback = fallback_->NewContext();
  return ctx;
}

TnrStats TnrIndex::RoutingStats(const QueryContext* ctx) const {
  return static_cast<const Context*>(ctx)->stats;
}

bool TnrIndex::TableApplicable(VertexId s, VertexId t) const {
  return CellChebyshev(coarse_.grid.CellOf(s), coarse_.grid.CellOf(t)) >=
         kTableRadius;
}

Distance TnrIndex::CoarseDistance(VertexId s, VertexId t,
                                  QueryCounters* counters) const {
  const size_t num_access = coarse_.access_vertices.size();
  Distance best = kInfDistance;
  for (const I2Entry& es : coarse_.AccessOf(s)) {
    const uint32_t* table_row =
        coarse_table_.data() + static_cast<size_t>(es.access_index) * num_access;
    counters->TableLookup(coarse_.AccessOf(t).size());
    for (const I2Entry& et : coarse_.AccessOf(t)) {
      const uint32_t mid = table_row[et.access_index];
      if (mid == kNoEntry) continue;
      const Distance total = es.dist + mid + et.dist;
      if (total < best) best = total;
    }
  }
  return best;
}

Distance TnrIndex::FineDistance(VertexId s, VertexId t, bool* answered,
                                QueryCounters* counters) const {
  *answered = false;
  const int32_t cheb =
      CellChebyshev(fine_->grid.CellOf(s), fine_->grid.CellOf(t));
  if (cheb < kTableRadius || cheb > kFineStoreMax) return kInfDistance;

  Distance best = kInfDistance;
  bool found_pair = false;
  for (const I2Entry& es : fine_->AccessOf(s)) {
    for (const I2Entry& et : fine_->AccessOf(t)) {
      counters->TableLookup();
      auto it = fine_table_.find(PairKey(es.access_index, et.access_index));
      if (it == fine_table_.end()) continue;
      found_pair = true;
      if (it->second == kInfDistance) continue;
      const Distance total = es.dist + it->second + et.dist;
      if (total < best) best = total;
    }
  }
  *answered = found_pair;
  return best;
}

Distance TnrIndex::RoutedDistance(Context* ctx, VertexId s,
                                  VertexId t) const {
  if (TableApplicable(s, t)) {
    ++ctx->stats.coarse_table_answered;
    return CoarseDistance(s, t, &ctx->counters);
  }
  if (fine_ != nullptr) {
    bool answered = false;
    const Distance d = FineDistance(s, t, &answered, &ctx->counters);
    if (answered) {
      ++ctx->stats.fine_table_answered;
      return d;
    }
  }
  ++ctx->stats.fallback_answered;
  // The fallback query resets and fills its own context's counters; fold
  // them into this query's totals so TNR reports its full search work.
  const Distance d = fallback_->DistanceQuery(ctx->fallback.get(), s, t);
  ctx->counters += ctx->fallback->counters;
  return d;
}

Distance TnrIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                 VertexId t) const {
  ctx->counters.Reset();
  if (s == t) return 0;
  return RoutedDistance(static_cast<Context*>(ctx), s, t);
}

Path TnrIndex::PathQuery(QueryContext* raw_ctx, VertexId s,
                         VertexId t) const {
  Context* ctx = static_cast<Context*>(raw_ctx);
  ctx->counters.Reset();
  ctx->path_distance = 0;
  if (s == t) return {s};
  const int32_t cheb =
      CellChebyshev(coarse_.grid.CellOf(s), coarse_.grid.CellOf(t));
  if (cheb < kPathWalkRadius) {
    ++ctx->stats.fallback_answered;
    Path p = fallback_->PathQuery(ctx->fallback.get(), s, t);
    ctx->counters += ctx->fallback->counters;
    ctx->path_distance = ctx->fallback->path_distance;
    return p;
  }

  // Greedy walk (Section 3.3): repeatedly step to the neighbour v of the
  // current vertex that minimizes w(cur, v) + dist(v, t), each dist served
  // by the table. Stop once the table no longer applies and splice the
  // remaining stretch from the fallback.
  ++ctx->stats.coarse_table_answered;
  Path path{s};
  VertexId cur = s;
  Distance walked = 0;
  const size_t step_limit = graph_.NumVertices();  // loop guard
  while (path.size() <= step_limit) {
    if (CellChebyshev(coarse_.grid.CellOf(cur), coarse_.grid.CellOf(t)) <
        kTableRadius + 1) {
      break;
    }
    VertexId best_v = kInvalidVertex;
    Weight best_w = 0;
    Distance best_total = kInfDistance;
    bool all_applicable = true;
    for (const Arc& a : graph_.Neighbors(cur)) {
      if (!TableApplicable(a.to, t)) {
        // A long edge can land inside the locality radius; hand the rest
        // of the route to the fallback rather than risk a detour.
        all_applicable = false;
        break;
      }
      const Distance d = CoarseDistance(a.to, t, &ctx->counters);
      if (d == kInfDistance) continue;
      const Distance total = a.weight + d;
      if (total < best_total) {
        best_total = total;
        best_v = a.to;
        best_w = a.weight;
      }
    }
    if (!all_applicable || best_v == kInvalidVertex) break;
    path.push_back(best_v);
    walked += best_w;
    cur = best_v;
  }

  Path tail = fallback_->PathQuery(ctx->fallback.get(), cur, t);
  ctx->counters += ctx->fallback->counters;
  if (tail.empty()) {
    ctx->path_distance = kInfDistance;
    return {};
  }
  ctx->path_distance = walked + ctx->fallback->path_distance;
  path.insert(path.end(), tail.begin() + 1, tail.end());
  return path;
}

size_t TnrIndex::IndexBytes() const {
  size_t bytes = VectorBytes(coarse_table_) +
                 VectorBytes(coarse_.access_vertices) +
                 VectorBytes(coarse_.vertex_offsets) +
                 VectorBytes(coarse_.i2) + coarse_.grid.MemoryBytes() +
                 NestedVectorBytes(coarse_.cell_access);
  if (fine_ != nullptr) {
    bytes += VectorBytes(fine_->access_vertices) +
             VectorBytes(fine_->vertex_offsets) + VectorBytes(fine_->i2) +
             fine_->grid.MemoryBytes() +
             NestedVectorBytes(fine_->cell_access);
    // Hash-map footprint: entries plus bucket array.
    bytes += fine_table_.size() *
                 (sizeof(uint64_t) + sizeof(Distance) + sizeof(void*)) +
             fine_table_.bucket_count() * sizeof(void*);
  }
  if (bidi_fallback_ != nullptr) bytes += bidi_fallback_->IndexBytes();
  return bytes;
}

std::span<const VertexId> TnrIndex::CellAccessNodes(VertexId v) const {
  const uint32_t cell = coarse_.grid.CellIndex(coarse_.grid.CellOf(v));
  return coarse_.cell_access[cell];
}

}  // namespace roadnet
