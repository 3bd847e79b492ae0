// Layout ablation (ours): the rank-permuted, SoA-split CH search core vs.
// the original-order AoS layout it replaced. Both query cores run over
// the SAME contraction (identical ranks, identical augmented edge set),
// so every latency difference is a memory-layout effect — exactly the
// class of gap "Transit Node Routing Reconsidered" attributes to cache
// behaviour rather than algorithmics.
//
//   bench_ch_layout [--quick] [--out BENCH_ch_layout.json]
//
// Measures distance and path queries across Q1..Q10 per dataset, prints a
// paper-style table, and writes machine-readable JSONL (validated by
// scripts/validate_metrics.py). Exits nonzero if any distance or path
// length disagrees between the layouts or if the new layout is slower
// than the legacy baseline on the aggregate Q6..Q10 distance workload of
// the largest dataset — the regression gate scripts/check.sh runs.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "pq/indexed_heap.h"
#include "routing/path_index.h"
#include "workload/query_gen.h"

namespace roadnet {
namespace {

// The pre-split baseline, preserved verbatim as a PathIndex: vertices in
// original (generator/spatial) order, one 12-byte AoS record per upward
// arc with the middle tag inline, parent-vertex trees, and binary-search
// FindEdge per unpacked hop (counted as counters.edge_searches). Only the
// contraction handoff differs from the historical ChIndex: it adopts a
// ContractionResult so both layouts share one hierarchy.
class LegacyChIndex : public PathIndex {
 public:
  LegacyChIndex(const Graph& g, const ContractionResult& result)
      : graph_(g), rank_(result.rank) {
    const uint32_t n = g.NumVertices();
    std::vector<uint32_t> degree(n, 0);
    for (const TaggedEdge& e : result.edges) {
      VertexId lo = rank_[e.u] < rank_[e.v] ? e.u : e.v;
      ++degree[lo];
    }
    up_offsets_.assign(n + 1, 0);
    for (uint32_t v = 0; v < n; ++v) {
      up_offsets_[v + 1] = up_offsets_[v] + degree[v];
    }
    up_arcs_.resize(up_offsets_[n]);
    std::vector<size_t> cursor(up_offsets_.begin(), up_offsets_.end() - 1);
    for (const TaggedEdge& e : result.edges) {
      VertexId lo = e.u, hi = e.v;
      if (rank_[lo] > rank_[hi]) std::swap(lo, hi);
      up_arcs_[cursor[lo]++] = UpArc{hi, e.weight, e.middle};
    }
    for (uint32_t v = 0; v < n; ++v) {
      std::sort(up_arcs_.begin() + up_offsets_[v],
                up_arcs_.begin() + up_offsets_[v + 1],
                [](const UpArc& a, const UpArc& b) { return a.to < b.to; });
    }
  }

  std::string Name() const override { return "CH-legacy"; }
  std::unique_ptr<QueryContext> NewContext() const override {
    return std::make_unique<Context>(graph_.NumVertices());
  }
  size_t IndexBytes() const override {
    return rank_.size() * sizeof(uint32_t) +
           up_offsets_.size() * sizeof(size_t) +
           up_arcs_.size() * sizeof(UpArc);
  }

  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override {
    Distance d = kInfDistance;
    Search(static_cast<Context*>(ctx), s, t, &d);
    return d;
  }

  Path PathQuery(QueryContext* raw_ctx, VertexId s, VertexId t) const override {
    Context* ctx = static_cast<Context*>(raw_ctx);
    const VertexId meet = Search(ctx, s, t, &ctx->path_distance);
    if (meet == kInvalidVertex) return {};
    if (s == t) return {s};
    std::vector<VertexId> up_path;
    for (VertexId cur = meet; cur != kInvalidVertex;
         cur = ctx->forward.parent[cur]) {
      up_path.push_back(cur);
    }
    std::reverse(up_path.begin(), up_path.end());
    for (VertexId cur = ctx->backward.parent[meet]; cur != kInvalidVertex;
         cur = ctx->backward.parent[cur]) {
      up_path.push_back(cur);
    }
    Path path;
    path.push_back(up_path.front());
    for (size_t i = 0; i + 1 < up_path.size(); ++i) {
      UnpackEdge(up_path[i], up_path[i + 1], &path, &ctx->counters);
    }
    return path;
  }

 private:
  struct UpArc {
    VertexId to;
    Weight weight;
    VertexId middle;
  };

  struct SearchSide {
    IndexedHeap<Distance> heap;
    std::vector<Distance> dist;
    std::vector<VertexId> parent;
    std::vector<uint32_t> reached;

    explicit SearchSide(uint32_t n)
        : heap(n), dist(n, 0), parent(n, kInvalidVertex), reached(n, 0) {}
  };

  struct Context : QueryContext {
    explicit Context(uint32_t n) : forward(n), backward(n) {}
    SearchSide forward;
    SearchSide backward;
    uint32_t generation = 0;
  };

  std::span<const UpArc> UpArcs(VertexId v) const {
    return {up_arcs_.data() + up_offsets_[v],
            up_offsets_[v + 1] - up_offsets_[v]};
  }

  bool IsStalled(const SearchSide& side, uint32_t generation, VertexId v,
                 Distance dv) const {
    for (const UpArc& a : UpArcs(v)) {
      if (side.reached[a.to] == generation &&
          side.dist[a.to] + a.weight < dv) {
        return true;
      }
    }
    return false;
  }

  VertexId Search(Context* ctx, VertexId s, VertexId t,
                  Distance* out_dist) const {
    ++ctx->generation;
    ctx->counters.Reset();
    SearchSide& forward = ctx->forward;
    SearchSide& backward = ctx->backward;
    forward.heap.Clear();
    backward.heap.Clear();
    forward.dist[s] = 0;
    forward.parent[s] = kInvalidVertex;
    forward.reached[s] = ctx->generation;
    forward.heap.Push(s, 0);
    backward.dist[t] = 0;
    backward.parent[t] = kInvalidVertex;
    backward.reached[t] = ctx->generation;
    backward.heap.Push(t, 0);
    ctx->counters.HeapPush(2);

    Distance best = (s == t) ? 0 : kInfDistance;
    VertexId meet = (s == t) ? s : kInvalidVertex;

    SearchSide* sides[2] = {&forward, &backward};
    while (true) {
      SearchSide* side = nullptr;
      for (SearchSide* cand : sides) {
        if (cand->heap.Empty() || cand->heap.MinKey() >= best) continue;
        if (side == nullptr || cand->heap.MinKey() < side->heap.MinKey()) {
          side = cand;
        }
      }
      if (side == nullptr) break;
      SearchSide* other = (side == &forward) ? &backward : &forward;

      VertexId u = side->heap.PopMin();
      ctx->counters.HeapPop();
      ctx->counters.Settle();
      const Distance du = side->dist[u];
      if (IsStalled(*side, ctx->generation, u, du)) continue;

      for (const UpArc& a : UpArcs(u)) {
        ctx->counters.RelaxEdge();
        const Distance cand = du + a.weight;
        bool improved = false;
        if (side->reached[a.to] != ctx->generation) {
          side->reached[a.to] = ctx->generation;
          side->dist[a.to] = cand;
          side->parent[a.to] = u;
          side->heap.Push(a.to, cand);
          ctx->counters.HeapPush();
          improved = true;
        } else if (cand < side->dist[a.to]) {
          side->dist[a.to] = cand;
          side->parent[a.to] = u;
          if (side->heap.Contains(a.to)) {
            side->heap.DecreaseKey(a.to, cand);
          } else {
            side->heap.Push(a.to, cand);
          }
          ctx->counters.HeapPush();
          improved = true;
        }
        if (improved && other->reached[a.to] == ctx->generation) {
          const Distance total = cand + other->dist[a.to];
          if (total < best) {
            best = total;
            meet = a.to;
          }
        }
      }
    }
    *out_dist = best;
    return meet;
  }

  const UpArc* FindEdge(VertexId a, VertexId b,
                        QueryCounters* counters) const {
    counters->EdgeSearch();
    VertexId lo = a, hi = b;
    if (rank_[lo] > rank_[hi]) std::swap(lo, hi);
    auto arcs = UpArcs(lo);
    auto it = std::lower_bound(
        arcs.begin(), arcs.end(), hi,
        [](const UpArc& arc, VertexId target) { return arc.to < target; });
    return (it != arcs.end() && it->to == hi) ? &*it : nullptr;
  }

  void UnpackEdge(VertexId a, VertexId b, Path* out,
                  QueryCounters* counters) const {
    const UpArc* e = FindEdge(a, b, counters);
    if (e == nullptr || e->middle == kInvalidVertex) {
      out->push_back(b);
      return;
    }
    counters->ShortcutUnpacked();
    UnpackEdge(a, e->middle, out, counters);
    UnpackEdge(e->middle, b, out, counters);
  }

  const Graph& graph_;
  std::vector<uint32_t> rank_;
  std::vector<size_t> up_offsets_;
  std::vector<UpArc> up_arcs_;
};

}  // namespace
}  // namespace roadnet

int main(int argc, char** argv) {
  using namespace roadnet;

  bool quick = false;
  std::string out_path = "BENCH_ch_layout.json";
  if (!bench::ParseQuickOut(argc, argv, &quick, &out_path)) return 2;

  // Layout effects are cache effects, so the gated (largest) dataset must
  // not fit comfortably in cache: both modes go up to W-US' (62600
  // vertices, ~5s contraction), whose per-side search state plus arc
  // array exceed typical L2. Quick mode skips the smaller warmup sizes.
  std::vector<DatasetSpec> specs;
  for (const auto& spec : PaperDatasets()) {
    if ((!quick && (spec.name == "CO'" || spec.name == "CA'")) ||
        spec.name == "FL'" || spec.name == "W-US'" || spec.name == "C-US'" ||
        spec.name == "US'") {
      specs.push_back(spec);
    }
  }

  MetricsRegistry metrics;
  std::printf("CH layout ablation: rank-permuted SoA vs. original-order "
              "AoS (one contraction, two query cores)\n");

  bool gate_failed = false;
  for (size_t di = 0; di < specs.size(); ++di) {
    const DatasetSpec& spec = specs[di];
    const bool largest = di + 1 == specs.size();
    Graph g = BuildDataset(spec);
    ContractionResult contraction = ContractGraph(g, ChConfig{});
    LegacyChIndex legacy(g, contraction);
    ChIndex ranked(g, std::move(contraction), ChConfig{});

    const auto sets =
        GenerateLInfQuerySets(g, quick ? 250 : 500, 4100 + spec.seed);

    std::printf("\n(%s)  n=%u, %zu shortcuts\n", spec.name.c_str(),
                g.NumVertices(), ranked.NumShortcuts());
    std::printf("%-5s %8s  %11s %11s %8s  %11s %11s %8s\n", "set", "queries",
                "dist aos", "dist soa", "speedup", "path aos", "path soa",
                "speedup");
    bench::PrintRule(88);

    double hi_legacy_dist = 0, hi_ranked_dist = 0;  // Q6..Q10 aggregate
    for (const QuerySet& set : sets) {
      if (set.pairs.empty()) continue;
      // The rank-SoA index (named "CH") is each cell's reference.
      const CellResult dist =
          Experiment::MeasureCell({{&legacy}, {&ranked}}, set, false);
      const CellResult path =
          Experiment::MeasureCell({{&legacy}, {&ranked}}, set, true);
      if (dist.techniques[0].answers != dist.techniques[1].answers ||
          path.techniques[0].answers != path.techniques[1].answers) {
        std::fprintf(stderr,
                     "FAIL: layouts disagree on %s/%s distances or paths\n",
                     spec.name.c_str(), set.name.c_str());
        return 1;
      }
      const double legacy_dist = dist.techniques[0].median_micros;
      const double ranked_dist = dist.techniques[1].median_micros;
      const double legacy_path = path.techniques[0].median_micros;
      const double ranked_path = path.techniques[1].median_micros;
      const bool high_set = set.name >= "Q6" || set.name == "Q10";
      if (high_set) {
        hi_legacy_dist += legacy_dist * set.pairs.size();
        hi_ranked_dist += ranked_dist * set.pairs.size();
      }
      std::printf("%-5s %8zu  %11.2f %11.2f %7.2fx  %11.2f %11.2f %7.2fx\n",
                  set.name.c_str(), set.pairs.size(), legacy_dist,
                  ranked_dist, legacy_dist / ranked_dist, legacy_path,
                  ranked_path, legacy_path / ranked_path);
      std::vector<std::pair<std::string, std::string>> labels = {
          {"dataset", spec.name}, {"set", set.name}};
      auto with_layout = [&labels](const char* layout) {
        auto l = labels;
        l.emplace_back("layout", layout);
        return l;
      };
      metrics.Add("ch_dist_us", legacy_dist, with_layout("legacy_aos"));
      metrics.Add("ch_dist_us", ranked_dist, with_layout("rank_soa"));
      metrics.Add("ch_path_us", legacy_path, with_layout("legacy_aos"));
      metrics.Add("ch_path_us", ranked_path, with_layout("rank_soa"));
      metrics.Add("ch_dist_speedup", legacy_dist / ranked_dist, labels);
      metrics.Add("ch_path_speedup", legacy_path / ranked_path, labels);
    }

    if (hi_ranked_dist > 0) {
      const double speedup = hi_legacy_dist / hi_ranked_dist;
      std::printf("%s Q6..Q10 distance speedup: %.2fx\n", spec.name.c_str(),
                  speedup);
      metrics.Add("ch_dist_speedup_q6_q10", speedup, {{"dataset", spec.name}});
      // The regression gate: on the largest dataset the rank-permuted SoA
      // layout must not lose to the baseline it replaced.
      if (largest && speedup < 1.0) gate_failed = true;
    }
    metrics.Add("ch_index_bytes", static_cast<double>(legacy.IndexBytes()),
                {{"dataset", spec.name}, {"layout", "legacy_aos"}});
    metrics.Add("ch_index_bytes", static_cast<double>(ranked.IndexBytes()),
                {{"dataset", spec.name}, {"layout", "rank_soa"}});
  }

  if (!metrics.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  if (gate_failed) {
    std::fprintf(stderr,
                 "FAIL: rank-permuted SoA layout slower than the legacy "
                 "baseline on Q6..Q10 distance queries\n");
    return 1;
  }
  return 0;
}
