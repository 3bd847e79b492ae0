// Hub labels vs. the CH they were built from, and that CH's rank-permuted
// SoA layout vs. the original-order AoS layout it replaced: the paper's
// space-for-time endgame and our layout ablation in one run. All three
// indexes answer from the SAME contraction (HL labels are the CH's pruned
// upward search spaces; the AoS copy holds the same ranks and augmented
// edges), so the HL/CH latency gap is purely merge-intersection vs.
// bidirectional upward search, the CH/AoS gap is purely memory layout —
// the class of gap "Transit Node Routing Reconsidered" attributes to
// cache behaviour rather than algorithmics — and the space gap is purely
// the flattened label arrays.
//
//   bench_hl [--quick] [--out BENCH_hl.json]
//
// Times distance and path queries of all three across Q1..Q10 per
// dataset, one Experiment::MeasureCell per (set, kind) with CH as the A/A
// reference, prints a paper-style table plus a label-size-vs-CH-space
// summary, and writes machine-readable JSONL (validated by
// scripts/validate_metrics.py). Exits nonzero if HL or the AoS copy
// disagrees with CH on any distance or path length, if on the aggregate
// Q6..Q10 distance workload of the largest dataset CH is slower than the
// AoS copy or HL is not faster than CH, if building the labels of the
// largest dataset takes longer than the contraction they start from, if
// the largest dataset's labels keep more bytes than their two-tier
// layout needs (6 per entry, references and block slack), or if the
// serialized hierarchy of FL' or W-US' is not the pinned one — the
// regression gates scripts/check.sh runs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "core/experiment.h"
#include "hl/hl_index.h"
#include "io/crc32.h"
#include "obs/metrics.h"
#include "pq/indexed_heap.h"
#include "routing/path_index.h"
#include "util/bytes.h"
#include "util/timer.h"
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

// CRC-32 of ChIndex::Serialize's output under the default ChConfig, per
// dataset. W-US' is the hierarchy the batch benchmark queries; a change
// to the contraction must reproduce both bit for bit.
struct PinnedHierarchy {
  const char* dataset;
  uint32_t crc;
};
constexpr PinnedHierarchy kPinnedHierarchies[] = {
    {"FL'", 0x315ccf14u},
    {"W-US'", 0x2713025au},
};

// The arms of every cell, in entry order.
constexpr size_t kCh = 0;
constexpr size_t kHl = 1;
constexpr size_t kAos = 2;
constexpr size_t kArms = 3;

}  // namespace
}  // namespace roadnet

int main(int argc, char** argv) {
  using namespace roadnet;

  bool quick = false;
  std::string out_path = "BENCH_hl.json";
  if (!bench::ParseQuickOut(argc, argv, &quick, &out_path)) return 2;

  // Layout effects are cache effects, so the gated (largest) dataset must
  // not fit comfortably in cache: in quick mode it is W-US', whose
  // per-side search state plus arc array exceed typical L2 and whose
  // label arrays dwarf it. Full mode adds the smaller paper datasets for
  // the space-growth curve and the larger ones for scale, and gates on
  // US'.
  std::vector<DatasetSpec> specs;
  for (const auto& spec : PaperDatasets()) {
    if ((!quick && (spec.name == "CO'" || spec.name == "CA'")) ||
        spec.name == "FL'" || spec.name == "W-US'" ||
        (!quick && (spec.name == "C-US'" || spec.name == "US'"))) {
      specs.push_back(spec);
    }
  }

  MetricsRegistry metrics;
  std::printf("Hub labels vs. CH vs. the original-order AoS CH (one "
              "contraction: labels are its pruned upward search spaces)\n");

  bool layout_gate_failed = false;
  bool hl_gate_failed = false;
  bool build_gate_failed = false;
  bool space_gate_failed = false;
  bool hierarchy_gate_failed = false;
  for (size_t di = 0; di < specs.size(); ++di) {
    const DatasetSpec& spec = specs[di];
    const bool largest = di + 1 == specs.size();
    Graph g = BuildDataset(spec);
    // The contraction time is ContractGraph plus the rank-space build,
    // what ChIndex(g) costs; the AoS copy is built outside the timer.
    Timer timer;
    ContractionResult contraction = ContractGraph(g, ChConfig{});
    double contract_seconds = timer.ElapsedSeconds();
    const LegacyChIndex legacy(g, contraction);
    timer.Reset();
    const ChIndex ch(g, std::move(contraction), ChConfig{});
    contract_seconds += timer.ElapsedSeconds();
    timer.Reset();
    const HlIndex hl(g, ch);
    const double build_seconds = timer.ElapsedSeconds();
    for (const PinnedHierarchy& pin : kPinnedHierarchies) {
      if (spec.name != pin.dataset) continue;
      std::ostringstream serialized;
      ch.Serialize(serialized);
      const uint32_t crc = Crc32(serialized.view());
      if (crc != pin.crc) {
        std::fprintf(stderr,
                     "FAIL: the %s hierarchy's CRC-32 is %08x, not the "
                     "pinned %08x\n",
                     spec.name.c_str(), crc, pin.crc);
        hierarchy_gate_failed = true;
      }
    }

    const auto sets =
        GenerateLInfQuerySets(g, quick ? 250 : 500, 4300 + spec.seed);

    std::printf("\n(%s)  n=%u, %zu shortcuts, contraction %.2fs, label "
                "build %.2fs, avg %.1f hubs/label (max %zu)\n",
                spec.name.c_str(), g.NumVertices(), ch.NumShortcuts(),
                contract_seconds, build_seconds, hl.AvgLabelEntries(),
                hl.MaxLabelEntries());
    // The build-time gate: labels derived from the hierarchy's upward
    // arcs must cost less than the contraction that produced them.
    if (largest && build_seconds > contract_seconds) build_gate_failed = true;
    std::printf("%-5s %8s  %9s %9s %9s  %9s %9s %9s\n", "set", "queries",
                "dist aos", "dist ch", "dist hl", "path aos", "path ch",
                "path hl");
    bench::PrintRule(82);

    // Q6..Q10 aggregates, per arm.
    double hi_dist[kArms] = {};
    const std::vector<CellEntry> arms = {{&ch}, {&hl}, {&legacy}};
    for (const QuerySet& set : sets) {
      if (set.pairs.empty()) continue;
      // CH, entry 0, is each cell's reference.
      const CellResult dist = Experiment::MeasureCell(arms, set, false);
      const CellResult path = Experiment::MeasureCell(arms, set, true);
      for (const size_t arm : {kHl, kAos}) {
        if (dist.techniques[arm].answers != dist.techniques[kCh].answers ||
            path.techniques[arm].answers != path.techniques[kCh].answers) {
          std::fprintf(stderr,
                       "FAIL: %s disagrees with CH on %s/%s distances or "
                       "paths\n",
                       arms[arm].index->Name().c_str(), spec.name.c_str(),
                       set.name.c_str());
          return 1;
        }
      }
      const bool high_set = set.name >= "Q6" || set.name == "Q10";
      double dist_us[kArms], path_us[kArms];
      for (size_t arm = 0; arm < kArms; ++arm) {
        dist_us[arm] = dist.techniques[arm].median_micros;
        path_us[arm] = path.techniques[arm].median_micros;
        if (high_set) hi_dist[arm] += dist_us[arm] * set.pairs.size();
      }
      std::printf("%-5s %8zu  %9.2f %9.2f %9.2f  %9.2f %9.2f %9.2f\n",
                  set.name.c_str(), set.pairs.size(), dist_us[kAos],
                  dist_us[kCh], dist_us[kHl], path_us[kAos], path_us[kCh],
                  path_us[kHl]);
      const std::vector<std::pair<std::string, std::string>> labels = {
          {"dataset", spec.name}, {"set", set.name}};
      metrics.Add("hl_dist_us", dist_us[kHl], labels);
      metrics.Add("hl_ch_dist_us", dist_us[kCh], labels);
      metrics.Add("ch_aos_dist_us", dist_us[kAos], labels);
      metrics.Add("hl_path_us", path_us[kHl], labels);
      metrics.Add("hl_ch_path_us", path_us[kCh], labels);
      metrics.Add("ch_aos_path_us", path_us[kAos], labels);
      metrics.Add("hl_dist_speedup", dist_us[kCh] / dist_us[kHl], labels);
    }

    if (hi_dist[kCh] > 0) {
      const double layout_speedup = hi_dist[kAos] / hi_dist[kCh];
      const double speedup = hi_dist[kCh] / hi_dist[kHl];
      std::printf("%s Q6..Q10 distance speedup: CH over the AoS copy "
                  "%.2fx, HL over CH %.2fx\n",
                  spec.name.c_str(), layout_speedup, speedup);
      metrics.Add("ch_dist_speedup_q6_q10", layout_speedup,
                  {{"dataset", spec.name}});
      metrics.Add("hl_dist_speedup_q6_q10", speedup, {{"dataset", spec.name}});
      // The regression gates: on the largest dataset the rank-permuted
      // SoA layout must not lose to the AoS layout it replaced, and a
      // label merge must beat the CH search it was derived from.
      if (largest && layout_speedup < 1.0) layout_gate_failed = true;
      if (largest && speedup <= 1.0) hl_gate_failed = true;
    }

    // The space side of the trade: label arrays vs. the CH structures.
    const double label_bytes = static_cast<double>(hl.LabelBytes());
    const double ch_bytes = static_cast<double>(ch.IndexBytes());
    std::printf("space: labels %.2f MiB vs CH %.2f MiB (%.2fx); AoS copy "
                "%.2f MiB\n",
                BytesToMiB(hl.LabelBytes()), BytesToMiB(ch.IndexBytes()),
                label_bytes / ch_bytes, BytesToMiB(legacy.IndexBytes()));
    // The space gate. A high-tier entry takes 6 bytes (a u16 hub, a u32
    // distance); a low-tier one 2 more, and a label with a low tier 4
    // more for its count; each vertex has an 8-byte reference. The blocks
    // add the last block's empty tail, under one block, and per block
    // the tail it skipped, under the longest run, plus its table entry.
    size_t low_entries = 0;
    size_t low_labels = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const size_t low = hl.Label(v).low_size();
      low_entries += low;
      low_labels += low > 0 ? 1 : 0;
    }
    const size_t entry_bytes =
        6 * hl.NumLabelEntries() + 2 * low_entries + 4 * low_labels;
    const size_t block_bytes = HlIndex::kBlockSlots * sizeof(uint16_t);
    const size_t longest_run = 8 * hl.MaxLabelEntries() + 4;
    const size_t blocks = entry_bytes / (block_bytes - longest_run) + 1;
    const size_t space_bound = entry_bytes + 8 * size_t{g.NumVertices()} +
                               block_bytes +
                               blocks * (longest_run + 2 * sizeof(void*));
    const double high_share =
        1.0 - static_cast<double>(low_entries) /
                  static_cast<double>(hl.NumLabelEntries());
    std::printf("labels: %zu B against a %zu B bound; %.1f%% of entries in "
                "the top 2^16 ranks\n",
                hl.LabelBytes(), space_bound, 100.0 * high_share);
    if (largest && hl.LabelBytes() > space_bound) space_gate_failed = true;
    metrics.Add("hl_label_bytes", label_bytes, {{"dataset", spec.name}});
    metrics.Add("hl_ch_index_bytes", ch_bytes, {{"dataset", spec.name}});
    metrics.Add("ch_aos_index_bytes", static_cast<double>(legacy.IndexBytes()),
                {{"dataset", spec.name}});
    metrics.Add("hl_space_ratio", label_bytes / ch_bytes,
                {{"dataset", spec.name}});
    metrics.Add("hl_avg_label_entries", hl.AvgLabelEntries(),
                {{"dataset", spec.name}});
    metrics.Add("hl_high_tier_share", high_share, {{"dataset", spec.name}});
    metrics.Add("hl_max_label_entries",
                static_cast<double>(hl.MaxLabelEntries()),
                {{"dataset", spec.name}});
    metrics.Add("hl_build_seconds", build_seconds, {{"dataset", spec.name}});
    metrics.Add("ch_contract_seconds", contract_seconds,
                {{"dataset", spec.name}});
  }

  if (!metrics.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  if (layout_gate_failed) {
    std::fprintf(stderr,
                 "FAIL: the rank-permuted SoA CH is slower than the AoS copy "
                 "on the Q6..Q10 workload of the largest dataset\n");
  }
  if (hl_gate_failed) {
    std::fprintf(stderr,
                 "FAIL: HL distance queries not faster than CH on the "
                 "Q6..Q10 workload of the largest dataset\n");
  }
  if (build_gate_failed) {
    std::fprintf(stderr,
                 "FAIL: the label build took longer than the contraction "
                 "on the largest dataset\n");
  }
  if (space_gate_failed) {
    std::fprintf(stderr,
                 "FAIL: the largest dataset's labels keep more bytes than "
                 "6 per entry, the references and block slack\n");
  }
  return layout_gate_failed || hl_gate_failed || build_gate_failed ||
                 space_gate_failed || hierarchy_gate_failed
             ? 1
             : 0;
}
