// The paper's evaluation in one pass: Table 1, Figures 6-11 and 13-17,
// Table 2 and Appendices A and B, plus our CH and TNR ablations and the
// approximate-oracle extension.
//
//   bench_paper [--out rows.jsonl]
//
// For each dataset it draws one Q1..Q10 and one R1..R10 family, builds
// every (technique, configuration) index the figures need once, times
// every cell through Experiment::MeasureCell, and drops the indexes
// before the next dataset. Every measurement is a row of one
// MetricsRegistry; the tables are printed from those rows at the end,
// and --out writes them (JSONL, or CSV for a .csv name).
//
// Set ROADNET_BENCH_FAST=1 for the four smallest datasets and 60 queries
// per set. Exits 1, naming each failing cell, if any timed technique
// answers differently from CH on its cell's queries, if an approximate
// oracle's error exceeds its epsilon, or if the Appendix B corrected TNR
// answers wrong or the flawed one never does.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alt/alt_index.h"
#include "arcflags/arc_flags.h"
#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "core/experiment.h"
#include "dijkstra/bidirectional.h"
#include "dijkstra/dijkstra.h"
#include "graph/connectivity.h"
#include "graph/generator.h"
#include "hiti/partition_overlay.h"
#include "obs/metrics.h"
#include "pcpd/approx_oracle.h"
#include "pcpd/pcpd_index.h"
#include "pcpd/redundancy.h"
#include "reach/reach_index.h"
#include "silc/silc_index.h"
#include "tnr/tnr_index.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/timer.h"

namespace roadnet {
namespace {

using Labels = std::vector<std::pair<std::string, std::string>>;

// The rows of the run, plus an exact-label lookup for printing them.
class Rows {
 public:
  void Add(const std::string& name, double value, Labels labels) {
    index_[Key(name, labels)] = value;
    registry_.Add(name, value, std::move(labels));
  }

  // The row's value, or -1 (printed "n/a") when there is none.
  double Get(const std::string& name, const Labels& labels) const {
    const auto it = index_.find(Key(name, labels));
    return it == index_.end() ? -1 : it->second;
  }

  // Counter rows, which no table reads: straight to the registry.
  void AddCounters(const QueryCounters& c, Labels labels, double scale,
                   const std::string& suffix) {
    registry_.AddCounters(c, std::move(labels), scale, suffix);
  }

  bool WriteFile(const std::string& path) const {
    return registry_.WriteFile(path);
  }

 private:
  static std::string Key(const std::string& name, Labels labels) {
    std::sort(labels.begin(), labels.end());
    std::string key = name;
    for (const auto& [k, v] : labels) key += "|" + k + "=" + v;
    return key;
  }

  MetricsRegistry registry_;
  std::unordered_map<std::string, double> index_;
};

// A (technique, configuration) pair: the row labels of one index.
struct Technique {
  std::string name;
  std::string config = "default";
};

Labels BuildLabels(const Technique& t, const std::string& dataset) {
  return {{"technique", t.name}, {"config", t.config}, {"dataset", dataset}};
}

Labels CellLabels(const std::string& cell, const std::string& dataset,
                  const std::string& set, bool paths) {
  return {{"cell", cell}, {"dataset", dataset}, {"set", set},
          {"kind", paths ? "path" : "distance"}};
}

Labels TechLabels(Labels labels, const Technique& t) {
  labels.emplace_back("technique", t.name);
  labels.emplace_back("config", t.config);
  return labels;
}

// The approximate distance oracle behind the PathIndex interface, so its
// cells are timed like every other technique's. Distances only.
class OracleIndex : public PathIndex {
 public:
  OracleIndex(const Graph& g, double epsilon) : oracle_(g, epsilon) {}
  std::string Name() const override { return "ApproxOracle"; }
  std::unique_ptr<QueryContext> NewContext() const override {
    return std::make_unique<QueryContext>();
  }
  Distance DistanceQuery(QueryContext*, VertexId s,
                         VertexId t) const override {
    return oracle_.Query(s, t);
  }
  Path PathQuery(QueryContext* ctx, VertexId, VertexId) const override {
    ctx->path_distance = kInfDistance;
    return {};
  }
  size_t IndexBytes() const override { return oracle_.IndexBytes(); }
  size_t NumPairs() const { return oracle_.NumPairs(); }

 private:
  ApproxDistanceOracle oracle_;
};

constexpr double kEpsilons[] = {0.01, 0.05, 0.20};

Technique OracleTechnique(double epsilon) {
  char config[32];
  std::snprintf(config, sizeof(config), "eps=%.2f", epsilon);
  return {"ApproxOracle", config};
}

// The CH ablation's orderings, stall-on-demand on and off. The first is
// the default CH every other figure uses.
struct ChVariant {
  const char* ordering;
  OrderingHeuristic heuristic;
};
constexpr ChVariant kChVariants[] = {
    {"edge-diff+deleted", OrderingHeuristic::kEdgeDifferenceDeleted},
    {"edge-diff", OrderingHeuristic::kEdgeDifference},
    {"degree", OrderingHeuristic::kDegree},
    {"random", OrderingHeuristic::kRandom},
};

Technique ChTechnique(const ChVariant& v, bool stall) {
  std::string config = v.heuristic == ChConfig{}.heuristic ? "" : v.ordering;
  if (!stall) config += config.empty() ? "nostall" : " nostall";
  return {"CH", config.empty() ? "default" : config};
}

// Figure 14/15's TNR variants: {coarse, hybrid} grid x {bidirectional
// Dijkstra, CH} fallback. DxD(CH) is the TNR of every other figure.
struct TnrVariant {
  const char* column;
  bool hybrid;
  TnrFallback fallback;
};
constexpr TnrVariant kTnrVariants[] = {
    {"DxD(Dij)", false, TnrFallback::kBidirectionalDijkstra},
    {"Hyb(Dij)", true, TnrFallback::kBidirectionalDijkstra},
    {"DxD(CH)", false, TnrFallback::kCh},
    {"Hyb(CH)", true, TnrFallback::kCh},
};

Technique TnrTechnique(uint32_t resolution, bool hybrid = false,
                       TnrFallback fallback = TnrFallback::kCh) {
  std::string config = "D=" + std::to_string(resolution);
  if (hybrid) config += " hybrid";
  if (fallback == TnrFallback::kBidirectionalDijkstra) config += " dij";
  return {"TNR", config};
}

// The datasets of Fig. 9/11's panels (the paper's DE, CO, CA, E-US at
// TNR's feasible scale), Fig. 14/15's, the TNR hit-rate ablation's and
// the CH ablation's (random ordering degrades sharply with size).
using Panel = std::vector<std::string>;
const Panel kFig9Panel = {"DE'", "CO'", "CA'", "E-US'"};
const Panel kFig14Panel = {"DE'", "CO'", "FL'", "CA'"};
const Panel kHitRatePanel = {"CO'", "CA'"};
const Panel kChAblationPanel = {"CO'", "FL'"};

bool In(const Panel& panel, const std::string& dataset) {
  return std::find(panel.begin(), panel.end(), dataset) != panel.end();
}

// One technique of a cell. An oracle entry (epsilon > 0) is checked
// against its error bound instead of exact agreement.
struct Entry {
  Technique tech;
  size_t max_queries = static_cast<size_t>(-1);
  double epsilon = 0;
};

class PaperRun {
 public:
  int Main(const std::string& out_path);

 private:
  void RunDataset(const DatasetSpec& spec);
  void RunTnrDefect();

  // Builds (technique, config) on the current dataset unless it already
  // is, and records its build rows.
  template <typename Index>
  const Index* Build(const Technique& t,
                     const std::function<std::unique_ptr<Index>()>& factory) {
    const auto it = indexes_.find({t.name, t.config});
    if (it != indexes_.end()) {
      return static_cast<const Index*>(it->second.get());
    }
    BuildResult b = Experiment::MeasureBuild(t.name, factory);
    const auto labels = BuildLabels(t, dataset_);
    rows_.Add("build_seconds", b.preprocess_seconds, labels);
    rows_.Add("index_bytes", static_cast<double>(b.index_bytes), labels);
    const PathIndex* index = b.index.get();
    if (const auto* ch = dynamic_cast<const ChIndex*>(index)) {
      rows_.Add("shortcuts", static_cast<double>(ch->NumShortcuts()), labels);
    } else if (const auto* tnr = dynamic_cast<const TnrIndex*>(index)) {
      rows_.Add("access_nodes", static_cast<double>(tnr->NumAccessNodes()),
                labels);
    } else if (const auto* pcpd = dynamic_cast<const PcpdIndex*>(index)) {
      rows_.Add("pairs", static_cast<double>(pcpd->NumPairs()), labels);
    } else if (const auto* oracle = dynamic_cast<const OracleIndex*>(index)) {
      rows_.Add("pairs", static_cast<double>(oracle->NumPairs()), labels);
    }
    indexes_[{t.name, t.config}] = std::move(b.index);
    return static_cast<const Index*>(index);
  }

  // Times one cell and records its rows, leaving out entries not built
  // on this dataset; checks every answer against the reference's (CH's).
  void TimeCell(const std::string& cell, const QuerySet& set, bool paths,
                const std::vector<Entry>& entries);

  void PrintTables() const;

  Rows rows_;
  std::vector<std::string> failures_;
  size_t cells_checked_ = 0;
  std::vector<std::string> datasets_;
  std::vector<std::string> bridges_;
  // The current dataset and its indexes.
  std::string dataset_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<PathIndex>>
      indexes_;
};

void PaperRun::TimeCell(const std::string& cell, const QuerySet& set,
                        bool paths, const std::vector<Entry>& all) {
  std::vector<Entry> entries;
  std::vector<CellEntry> cell_entries;
  for (const Entry& e : all) {
    const auto it = indexes_.find({e.tech.name, e.tech.config});
    if (it == indexes_.end()) continue;
    entries.push_back(e);
    cell_entries.push_back({it->second.get(), e.max_queries});
  }
  if (set.pairs.empty() || entries.size() < 2) return;
  const CellResult r = Experiment::MeasureCell(cell_entries, set, paths);
  const Labels labels = CellLabels(cell, dataset_, set.name, paths);
  rows_.Add("aa_ratio", r.aa_ratio, labels);
  rows_.Add("aa_iqr", r.aa_iqr, labels);
  const std::vector<Distance>& truth = r.techniques[r.reference].answers;
  ++cells_checked_;
  for (size_t i = 0; i < entries.size(); ++i) {
    const TechniqueTiming& t = r.techniques[i];
    const Labels l = TechLabels(labels, entries[i].tech);
    rows_.Add("us_median", t.median_micros, l);
    rows_.Add("us_iqr", t.iqr_micros, l);
    rows_.Add("rounds", Experiment::kCellRounds, l);
    rows_.Add("repeats", static_cast<double>(t.repeats), l);
    rows_.Add("queries", static_cast<double>(t.queries), l);
    rows_.AddCounters(t.counters, l, 1.0 / static_cast<double>(t.queries),
                      "_per_query");

    // Exact techniques must give CH's answers; an oracle must stay within
    // its epsilon of them.
    const double eps = entries[i].epsilon;
    size_t wrong = 0;
    double max_err = 0;
    for (size_t j = 0; j < std::min(t.answers.size(), truth.size()); ++j) {
      const double want = static_cast<double>(truth[j]);
      if (eps == 0 || truth[j] == kInfDistance || truth[j] == 0) {
        wrong += t.answers[j] != truth[j];
      } else {
        max_err = std::max(max_err, std::abs(t.answers[j] - want) / want);
      }
    }
    rows_.Add("mismatches", static_cast<double>(wrong), l);
    if (eps > 0) rows_.Add("max_rel_err", max_err, l);
    const std::string where = cell + " " + dataset_ + " " + set.name + " " +
                              labels[3].second + ": " + entries[i].tech.name +
                              " " + entries[i].tech.config;
    if (wrong > 0) {
      failures_.push_back(where + " disagrees with CH on " +
                          std::to_string(wrong) + " of " +
                          std::to_string(t.answers.size()) + " queries");
    }
    if (max_err > eps) {
      failures_.push_back(where + " max relative error " +
                          std::to_string(max_err) + " exceeds epsilon");
    }
  }
}

void PaperRun::RunDataset(const DatasetSpec& spec) {
  dataset_ = spec.name;
  datasets_.push_back(spec.name);
  const Labels dataset_labels = {{"dataset", spec.name}};

  // Table 1.
  Timer gen_timer;
  const Graph g = BuildDataset(spec);
  rows_.Add("gen_seconds", gen_timer.ElapsedSeconds(), dataset_labels);
  const uint32_t n = g.NumVertices();
  rows_.Add("vertices", n, dataset_labels);
  rows_.Add("edges", static_cast<double>(g.NumEdges()), dataset_labels);
  rows_.Add("connected", IsConnected(g) ? 1 : 0, dataset_labels);

  const std::vector<QuerySet> q_sets =
      GenerateLInfQuerySets(g, bench::QueriesPerSet(), 7000 + spec.seed);
  const std::vector<QuerySet> r_sets = GenerateNetworkDistanceQuerySets(
      g, bench::QueriesPerSet(), 1600 + spec.seed);
  QuerySet mixed{"Q4+Q9", q_sets[3].pairs};  // the ablations' near+far mix
  mixed.pairs.insert(mixed.pairs.end(), q_sets[8].pairs.begin(),
                     q_sets[8].pairs.end());

  // Table 2: the delta-redundancy upper bound on a prefix of each set.
  {
    RedundancyMeter meter(g);
    double min_ratio = HUGE_VAL;
    size_t pairs = 0, no_alternative = 0;
    for (const QuerySet& set : q_sets) {
      const size_t k =
          std::min<size_t>(set.pairs.size(), bench::FastMode() ? 5 : 20);
      for (const auto& [s, t] : std::span(set.pairs).first(k)) {
        const double r = meter.Ratio(s, t);
        ++pairs;
        if (std::isinf(r)) {
          ++no_alternative;
        } else {
          min_ratio = std::min(min_ratio, r);
        }
      }
    }
    rows_.Add("delta_min_ratio", min_ratio, dataset_labels);
    rows_.Add("delta_pairs", static_cast<double>(pairs), dataset_labels);
    rows_.Add("delta_no_alternative_pairs",
              static_cast<double>(no_alternative), dataset_labels);
  }

  // Builds, each (technique, config) once, and the cells.
  const uint32_t res = bench::PaperGridResolution();
  const bool tnr_ok = n <= bench::MaxVerticesForTnr();
  const bool all_pairs_ok = n <= bench::MaxVerticesForAllPairs();
  const bool fine_tnr_ok = n <= bench::MaxVerticesForTnr() / 3;
  const bool appa_ok = n <= bench::MaxVerticesForAppendixA();
  const bool fig14 = tnr_ok && In(kFig14Panel, spec.name);
  const bool hit_rate = tnr_ok && In(kHitRatePanel, spec.name);
  const Technique dij{"Dijkstra", "bidirectional"}, ch_t{"CH"};
  const Technique silc_t{"SILC"}, pcpd_t{"PCPD"};
  Build<PathIndex>(dij,
                   [&] { return std::make_unique<BidirectionalDijkstra>(g); });
  const ChIndex* ch =
      Build<ChIndex>(ch_t, [&] { return std::make_unique<ChIndex>(g); });

  // The epsilon sweep first, one oracle at a time against CH: an oracle
  // is the largest index of a dataset (99 MB at epsilon 0.01 on ME'), so
  // this keeps it from sharing the peak with every other index.
  for (double eps : kEpsilons) {
    if (!all_pairs_ok) break;
    const Technique t = OracleTechnique(eps);
    Build<OracleIndex>(t,
                       [&] { return std::make_unique<OracleIndex>(g, eps); });
    TimeCell("approx " + t.config, mixed, false,
             {{ch_t}, {t, mixed.pairs.size(), eps}});
    indexes_.erase({t.name, t.config});
  }

  auto build_tnr = [&](uint32_t resolution, bool hybrid, TnrFallback fb) {
    return Build<TnrIndex>(TnrTechnique(resolution, hybrid, fb), [&] {
      TnrConfig config{.grid_resolution = resolution,
                       .hybrid = hybrid,
                       .fallback = fb};
      return std::make_unique<TnrIndex>(g, ch, config);
    });
  };
  if (tnr_ok) build_tnr(res, false, TnrFallback::kCh);
  const TnrIndex* hybrid = fine_tnr_ok || fig14 || hit_rate
                               ? build_tnr(res, true, TnrFallback::kCh)
                               : nullptr;
  if (fine_tnr_ok) build_tnr(2 * res, false, TnrFallback::kCh);
  for (const TnrVariant& v : kTnrVariants) {
    if (fig14) build_tnr(res, v.hybrid, v.fallback);
  }
  if (all_pairs_ok) {
    Build<PathIndex>(silc_t, [&] { return std::make_unique<SilcIndex>(g); });
    Build<PathIndex>(pcpd_t, [&] { return std::make_unique<PcpdIndex>(g); });
  }
  // "main" holds Figures 7-11 and 14-17: every technique on both families.
  const size_t slow_cap = bench::SlowMethodQueryCap();
  std::vector<Entry> main_cell = {
      {dij, slow_cap}, {ch_t}, {TnrTechnique(res)}, {silc_t}, {pcpd_t}};
  for (const TnrVariant& v : kTnrVariants) {
    if (v.hybrid || v.fallback != TnrFallback::kCh) {
      main_cell.push_back({TnrTechnique(res, v.hybrid, v.fallback)});
    }
  }
  for (const std::vector<QuerySet>* family : {&q_sets, &r_sets}) {
    for (const QuerySet& set : *family) {
      for (bool paths : {false, true}) TimeCell("main", set, paths, main_cell);
    }
  }

  // TNR locality-filter routing per set (the hit-rate ablation).
  if (hit_rate) {
    for (const QuerySet& set : q_sets) {
      if (set.pairs.empty()) continue;
      const auto ctx = hybrid->NewContext();
      for (const auto& [s, t] : set.pairs) {
        hybrid->DistanceQuery(ctx.get(), s, t);
      }
      const TnrStats st = hybrid->RoutingStats(ctx.get());
      for (const auto& [route, count] :
           {std::pair{"coarse", st.coarse_table_answered},
            {"fine", st.fine_table_answered},
            {"fallback", st.fallback_answered}}) {
        rows_.Add("tnr_routed", static_cast<double>(count),
                  {{"dataset", dataset_}, {"set", set.name}, {"route", route}});
      }
    }
  }

  // Appendix A on Q4 and Q9.
  const Technique alt_t{"ALT"}, arc_t{"ArcFlags"}, re_t{"RE"}, hiti_t{"HiTi"};
  if (appa_ok) {
    Build<PathIndex>(alt_t, [&] { return std::make_unique<AltIndex>(g); });
    if (n <= bench::MaxVerticesForArcFlags()) {
      Build<PathIndex>(arc_t,
                       [&] { return std::make_unique<ArcFlagsIndex>(g); });
    }
    if (n <= bench::MaxVerticesForReach()) {
      Build<PathIndex>(re_t, [&] { return std::make_unique<ReachIndex>(g); });
    }
    Build<PathIndex>(hiti_t, [&] {
      return std::make_unique<PartitionOverlayIndex>(g);
    });
    for (int i : {3, 8}) {
      TimeCell("appa", q_sets[i], false,
               {{dij, slow_cap}, {alt_t}, {arc_t}, {re_t}, {hiti_t}, {ch_t}});
    }
  }

  // "mixed" holds the CH ablation, and "exact" the exact rows of the
  // epsilon sweep beside CH: together they are more entries than one cell
  // balances.
  std::vector<Entry> mixed_cell;
  for (const ChVariant& v : kChVariants) {
    for (bool stall : {true, false}) {
      const Technique t = ChTechnique(v, stall);
      mixed_cell.push_back({t});
      if (!In(kChAblationPanel, spec.name)) continue;
      Build<ChIndex>(t, [&] {
        ChConfig config{.heuristic = v.heuristic, .stall_on_demand = stall};
        return std::make_unique<ChIndex>(g, config);
      });
    }
  }
  for (bool paths : {false, true}) {
    TimeCell("mixed", mixed, paths, mixed_cell);
    TimeCell("exact", mixed, paths, {{ch_t}, {silc_t}, {pcpd_t}});
  }

  indexes_.clear();
  std::fprintf(stderr, "measured %s\n", spec.name.c_str());
}

// Appendix B: TNR built twice over networks with long "bridge" edges (the
// geometry of the paper's Figure 12(b) counter-example), once with the
// corrected access-node computation and once with the flawed enumeration
// that misses shell-jumping edges, checked against Dijkstra on
// table-answered queries.
void PaperRun::RunTnrDefect() {
  const uint32_t res = bench::PaperGridResolution();
  for (uint32_t target : {2000u, 5000u, 10000u}) {
    if (bench::FastMode() && target > 2000) continue;
    GeneratorConfig gc;
    gc.target_vertices = target;
    gc.seed = 4242 + target;
    gc.long_edge_probability = 0.03;  // bridges/tunnels that jump cells
    // Span ~3 grid cells so a bridge can hop clean over a shell ring.
    const auto side = static_cast<uint32_t>(std::ceil(std::sqrt(target)));
    gc.long_edge_span = std::max(6u, 3 * side / res + 2);
    const Graph g = GenerateRoadNetwork(gc);
    dataset_ = "bridges-" + std::to_string(target);
    bridges_.push_back(dataset_);
    rows_.Add("vertices", g.NumVertices(), {{"dataset", dataset_}});

    const ChIndex* ch =
        Build<ChIndex>({"CH"}, [&] { return std::make_unique<ChIndex>(g); });
    const TnrIndex* tnr[2];  // corrected, flawed
    std::unique_ptr<QueryContext> ctx[2];
    for (int flawed : {0, 1}) {
      Technique t = TnrTechnique(res);
      if (flawed) t.config += " flawed";
      tnr[flawed] = Build<TnrIndex>(t, [&] {
        TnrConfig config{.grid_resolution = res,
                         .flawed_access_nodes = flawed == 1};
        return std::make_unique<TnrIndex>(g, ch, config);
      });
      ctx[flawed] = tnr[flawed]->NewContext();
    }

    Dijkstra truth(g);
    Rng rng(7);
    size_t queries = 0, wrong[2] = {0, 0};
    double max_rel_err = 0;
    const size_t wanted = bench::FastMode() ? 100 : 400;
    for (size_t tries = 0; queries < wanted && tries < wanted * 50; ++tries) {
      const auto s = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      const auto t = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      // Only table-answered queries exercise the access nodes.
      if (s == t || !tnr[0]->TableApplicable(s, t)) continue;
      ++queries;
      const Distance d = truth.Run(s, t);
      for (int flawed : {0, 1}) {
        const Distance got =
            tnr[flawed]->DistanceQuery(ctx[flawed].get(), s, t);
        if (got == d) continue;
        ++wrong[flawed];
        if (flawed == 1 && got != kInfDistance && d > 0) {
          max_rel_err = std::max(max_rel_err, double(got) / double(d) - 1);
        }
      }
    }
    const Labels labels = {{"dataset", dataset_}};
    rows_.Add("tnr_defect_queries", static_cast<double>(queries), labels);
    rows_.Add("tnr_defect_max_rel_err", max_rel_err, labels);
    for (int flawed : {0, 1}) {
      rows_.Add("tnr_defect_wrong", static_cast<double>(wrong[flawed]),
                {{"dataset", dataset_},
                 {"variant", flawed ? "flawed" : "corrected"}});
    }
    if (wrong[0] > 0) {
      failures_.push_back("appb " + dataset_ + ": the corrected TNR answers " +
                          std::to_string(wrong[0]) + " of " +
                          std::to_string(queries) + " queries wrong");
    }
    // Positive control: the defect must still show.
    if (wrong[1] == 0) {
      failures_.push_back("appb " + dataset_ +
                          ": the flawed TNR answers every query right");
    }
    indexes_.clear();
  }
}

void PaperRun::PrintTables() const {
  const uint32_t res = bench::PaperGridResolution();
  const Technique ch_t{"CH"}, silc_t{"SILC"}, pcpd_t{"PCPD"};
  const Technique tnr_t = TnrTechnique(res);
  auto vertices = [&](const std::string& d) {
    return rows_.Get("vertices", {{"dataset", d}});
  };
  auto build = [&](const char* name, const Technique& t,
                   const std::string& d) {
    return rows_.Get(name, BuildLabels(t, d));
  };
  auto mib = [&](const Technique& t, const std::string& d) {
    const double bytes = build("index_bytes", t, d);
    return bytes < 0 ? -1 : BytesToMiB(static_cast<size_t>(bytes));
  };
  auto cell = [&](const char* name, const std::string& c,
                  const std::string& d, const std::string& set, bool paths,
                  const Technique& t) {
    return rows_.Get(name, TechLabels(CellLabels(c, d, set, paths), t));
  };
  auto us = [&](const std::string& c, const std::string& d,
                const std::string& set, bool paths, const Technique& t) {
    return cell("us_median", c, d, set, paths, t);
  };
  auto sets_of = [](const char* family) {
    std::vector<std::string> names;
    for (int i = 1; i <= 10; ++i) names.push_back(family + std::to_string(i));
    return names;
  };

  std::printf("Table 1 (analogue): dataset characteristics\n");
  std::printf("%-8s %-28s %12s %12s %10s %10s\n", "Name", "Paper dataset",
              "Vertices", "Edges", "Gen (s)", "Connected");
  bench::PrintRule(86);
  for (const DatasetSpec& spec : bench::BenchDatasets()) {
    const Labels l = {{"dataset", spec.name}};
    std::printf("%-8s %-28s %12.0f %12.0f %10.2f %10s\n", spec.name.c_str(),
                spec.paper_name.c_str(), rows_.Get("vertices", l),
                rows_.Get("edges", l), rows_.Get("gen_seconds", l),
                rows_.Get("connected", l) == 1 ? "yes" : "NO");
  }
  std::printf(
      "\nPaper reference (Table 1): DE 48,812 .. US 23,947,347 vertices;\n"
      "the analogues keep the 1:489 size ladder at ~1:100 scale.\n");

  // Figure 6. TNR counts the CH it falls back on, in space and time.
  std::printf("\nFigure 6: space overhead and preprocessing time vs n\n");
  for (bool space : {true, false}) {
    std::printf("\n%s\n", space ? "Figure 6(a): space consumption (MiB)"
                                : "Figure 6(b): preprocessing time (seconds)");
    std::printf("%-8s %10s %12s %12s %12s %12s\n", "Dataset", "n", "CH",
                "TNR", "SILC", "PCPD");
    bench::PrintRule(72);
    for (const std::string& d : datasets_) {
      std::printf("%-8s %10.0f", d.c_str(), vertices(d));
      for (const Technique& t : {ch_t, tnr_t, silc_t, pcpd_t}) {
        double v = space ? mib(t, d) : build("build_seconds", t, d);
        if (v >= 0 && t.name == "TNR") {
          v += space ? mib(ch_t, d) : build("build_seconds", ch_t, d);
        }
        if (v < 0) {
          std::printf(" %12s", "n/a");
        } else {
          std::printf(" %12.3f", v);
        }
      }
      std::printf("\n");
    }
  }
  std::printf("\nn/a = not applicable at that scale (SILC/PCPD: all-pairs "
              "cost; TNR: wall-clock cap).\n");

  std::printf("\nFigure 7: SILC vs PCPD, shortest path queries (microsec)\n");
  for (const std::string& d : datasets_) {
    if (build("index_bytes", pcpd_t, d) < 0) continue;
    std::printf("\n(%s)  n=%.0f\n", d.c_str(), vertices(d));
    std::printf("%-6s %8s %10s %10s %10s\n", "Set", "queries", "SILC", "PCPD",
                "PCPD/SILC");
    bench::PrintRule(48);
    size_t silc_wins = 0, populated = 0;
    for (const std::string& set : sets_of("Q")) {
      const double silc = us("main", d, set, true, silc_t);
      const double pcpd = us("main", d, set, true, pcpd_t);
      if (silc < 0 || pcpd < 0) {
        std::printf("%-6s %8d %10s %10s\n", set.c_str(), 0, "n/a", "n/a");
        continue;
      }
      std::printf("%-6s %8.0f %10.2f %10.2f %9.2fx\n", set.c_str(),
                  cell("queries", "main", d, set, true, silc_t), silc, pcpd,
                  pcpd / silc);
      ++populated;
      if (silc <= pcpd) ++silc_wins;
    }
    std::printf("SILC faster on %zu/%zu populated sets\n", silc_wins,
                populated);
  }

  // Figures 8/10 (Q sets) and 16/17 (R sets).
  auto print_vs_n = [&](const char* figure, const char* title,
                        const char* family, bool paths) {
    const Technique methods[] = {
        {"Dijkstra", "bidirectional"}, ch_t, tnr_t, silc_t};
    std::printf("\n%s: %s\n", figure, title);
    for (int i : {1, 4, 7, 10}) {
      const std::string set = family + std::to_string(i);
      std::printf("\n(%s)  running time (microsec) vs n\n", set.c_str());
      std::printf("%-8s %10s", "Dataset", "n");
      for (const Technique& m : methods) std::printf(" %10s", m.name.c_str());
      std::printf("\n");
      bench::PrintRule(64);
      for (const std::string& d : datasets_) {
        std::printf("%-8s %10.0f", d.c_str(), vertices(d));
        for (const Technique& m : methods) {
          bench::PrintMicrosCell(us("main", d, set, paths, m));
        }
        std::printf("\n");
      }
    }
  };
  std::printf("\nFigures 8 and 10: query efficiency vs n\n");
  print_vs_n("Figure 8", "DISTANCE queries", "Q", false);
  print_vs_n("Figure 10", "SHORTEST PATH queries", "Q", true);

  std::printf("\nFigures 9 and 11: query efficiency vs query set\n");
  for (const std::string& d : datasets_) {
    if (!In(kFig9Panel, d) || build("index_bytes", tnr_t, d) < 0) continue;
    std::printf("\n(%s)  n=%.0f, grid %ux%u, %.0f access nodes\n", d.c_str(),
                vertices(d), res, res, build("access_nodes", tnr_t, d));
    std::printf("%-6s %8s | %10s %10s %10s | %10s %10s %10s\n", "Set",
                "queries", "CH dist", "TNR dist", "SILC dist", "CH path",
                "TNR path", "SILC path");
    bench::PrintRule(90);
    for (const std::string& set : sets_of("Q")) {
      const double q = cell("queries", "main", d, set, false, ch_t);
      if (q < 0) {
        std::printf("%-6s %8d | (unpopulated at this scale)\n", set.c_str(),
                    0);
        continue;
      }
      std::printf("%-6s %8.0f |", set.c_str(), q);
      for (bool paths : {false, true}) {
        for (const Technique& t : {ch_t, tnr_t, silc_t}) {
          bench::PrintMicrosCell(us("main", d, set, paths, t));
        }
        std::printf(paths ? "\n" : " |");
      }
    }
  }

  std::printf(
      "\nTable 2: min length(P')/length(P) over the query sets (upper bound "
      "on delta)\n");
  std::printf("%-8s %10s %14s %12s %12s\n", "Dataset", "n", "min ratio",
              "pairs", "no-P' pairs");
  bench::PrintRule(62);
  for (const std::string& d : datasets_) {
    const Labels l = {{"dataset", d}};
    std::printf("%-8s %10.0f %14.5f %12.0f %12.0f\n", d.c_str(), vertices(d),
                rows_.Get("delta_min_ratio", l), rows_.Get("delta_pairs", l),
                rows_.Get("delta_no_alternative_pairs", l));
  }
  std::printf(
      "\nPaper reference (Table 2): minima between 1 and 1.00379 on all ten "
      "datasets.\n");

  std::printf(
      "\nAppendix B: flawed vs corrected TNR access-node computation\n");
  std::printf("%-10s %8s %8s | %14s %14s | %12s\n", "Network", "n",
              "queries", "correct wrong", "flawed wrong", "max rel err");
  bench::PrintRule(78);
  for (const std::string& b : bridges_) {
    const Labels l = {{"dataset", b}};
    std::printf("%-10s %8.0f %8.0f | %14.0f %14.0f | %11.2f%%\n", b.c_str(),
                vertices(b), rows_.Get("tnr_defect_queries", l),
                rows_.Get("tnr_defect_wrong",
                          {{"dataset", b}, {"variant", "corrected"}}),
                rows_.Get("tnr_defect_wrong",
                          {{"dataset", b}, {"variant", "flawed"}}),
                100.0 * rows_.Get("tnr_defect_max_rel_err", l));
  }
  std::printf("\nThe corrected computation (Section 3.3 Remarks) must be "
              "exact; the flawed one\nover-estimates when a region's only "
              "exit is a shell-jumping edge (Fig. 12(b)).\n");

  std::printf(
      "\nFigure 13: TNR space (MiB) and preprocessing (s) per grid "
      "configuration\n");
  std::printf("%-8s %8s | %10s %10s %10s | %10s %10s %10s\n", "Dataset", "n",
              "DxD MiB", "2Dx2D MiB", "hyb MiB", "DxD s", "2Dx2D s", "hyb s");
  bench::PrintRule(92);
  const Technique grids[3] = {tnr_t, TnrTechnique(2 * res),
                              TnrTechnique(res, true)};
  for (const std::string& d : datasets_) {
    if (build("index_bytes", grids[1], d) < 0) continue;
    std::printf("%-8s %8.0f |", d.c_str(), vertices(d));
    for (const Technique& t : grids) std::printf(" %10.2f", mib(t, d));
    std::printf(" |");
    for (const Technique& t : grids) {
      std::printf(" %10.2f", build("build_seconds", t, d));
    }
    std::printf("   (D=%u)\n", res);
  }
  std::printf("\nPaper shape: 128x128 < hybrid < 256x256 in space; the "
              "hybrid grid costs the most\npreprocessing.\n");

  std::printf("\nFigures 14-15: TNR variants, query time (microsec)\n");
  const Technique dij_tnr =
      TnrTechnique(res, false, TnrFallback::kBidirectionalDijkstra);
  for (const std::string& d : datasets_) {
    if (build("index_bytes", dij_tnr, d) < 0) continue;
    for (bool paths : {false, true}) {
      std::printf("\n(%s)  n=%.0f, D=%u — %s queries\n", d.c_str(),
                  vertices(d), res,
                  paths ? "PATH (Fig. 15)" : "DISTANCE (Fig. 14)");
      std::printf("%-6s %8s", "Set", "queries");
      for (const TnrVariant& v : kTnrVariants) std::printf(" %10s", v.column);
      std::printf("\n");
      bench::PrintRule(60);
      for (const std::string& set : sets_of("Q")) {
        const double q = cell("queries", "main", d, set, paths, ch_t);
        if (q < 0) continue;
        std::printf("%-6s %8.0f", set.c_str(), q);
        for (const TnrVariant& v : kTnrVariants) {
          bench::PrintMicrosCell(us("main", d, set, paths,
                                    TnrTechnique(res, v.hybrid, v.fallback)));
        }
        std::printf("\n");
      }
    }
  }

  std::printf("\nFigures 16 and 17: R query sets (network-distance buckets)\n");
  print_vs_n("Figure 16", "DISTANCE queries", "R", false);
  print_vs_n("Figure 17", "SHORTEST PATH queries", "R", true);

  std::printf("\nCH ablation: ordering heuristics and stall-on-demand\n");
  for (const std::string& d : datasets_) {
    if (build("index_bytes", ChTechnique(kChVariants[1], true), d) < 0) {
      continue;
    }
    std::printf("\n(%s)  n=%.0f, %.0f queries\n", d.c_str(), vertices(d),
                cell("queries", "mixed", d, "Q4+Q9", false, ch_t));
    std::printf("%-20s %10s %10s %10s %12s %12s %12s\n", "Ordering",
                "shortcuts", "prep (s)", "MiB", "dist stall", "dist nostall",
                "path (us)");
    bench::PrintRule(92);
    for (const ChVariant& v : kChVariants) {
      const Technique stall = ChTechnique(v, true);
      std::printf("%-20s %10.0f %10.2f %10.2f %12.2f %12.2f %12.2f\n",
                  v.ordering, build("shortcuts", stall, d),
                  build("build_seconds", stall, d), mib(stall, d),
                  us("mixed", d, "Q4+Q9", false, stall),
                  us("mixed", d, "Q4+Q9", false, ChTechnique(v, false)),
                  us("mixed", d, "Q4+Q9", true, stall));
    }
  }
  std::printf("\nExpected: edge-difference orderings add the fewest "
              "shortcuts and answer fastest;\nrandom ordering shows the "
              "paper's inferior-ordering warning.\n");

  std::printf("\nTNR locality-filter hit rates per query set\n");
  for (const std::string& d : datasets_) {
    if (!In(kHitRatePanel, d) || build("index_bytes", tnr_t, d) < 0) continue;
    std::printf("\n(%s)  n=%.0f, D=%u hybrid\n", d.c_str(), vertices(d), res);
    std::printf("%-6s %8s %12s %12s %12s\n", "Set", "queries",
                "coarse table", "fine table", "fallback");
    bench::PrintRule(56);
    for (const std::string& set : sets_of("Q")) {
      auto routed = [&](const char* route) {
        return rows_.Get("tnr_routed",
                         {{"dataset", d}, {"set", set}, {"route", route}});
      };
      if (routed("coarse") < 0) continue;
      std::printf("%-6s %8.0f %12.0f %12.0f %12.0f\n", set.c_str(),
                  cell("queries", "main", d, set, false, ch_t),
                  routed("coarse"), routed("fine"), routed("fallback"));
    }
  }
  std::printf("\nExpected: near sets 100%% fallback, far sets 100%% coarse "
              "table, the fine table\nin between.\n");

  std::printf(
      "\nAppendix A: ALT / ArcFlags / RE / HiTi vs CH vs bidi Dijkstra\n");
  std::printf("%-8s %8s %-9s %10s %10s %12s %12s\n", "Dataset", "n",
              "method", "prep (s)", "MiB", "dist Q4", "dist Q9");
  bench::PrintRule(76);
  const Technique appa[] = {
      {"Dijkstra", "bidirectional"}, {"ALT"}, {"ArcFlags"}, {"RE"}, {"HiTi"},
      ch_t};
  for (const std::string& d : datasets_) {
    for (const Technique& t : appa) {
      const double q4 = us("appa", d, "Q4", false, t);
      const double q9 = us("appa", d, "Q9", false, t);
      if (q4 < 0 && q9 < 0) continue;
      std::printf("%-8s %8.0f %-9s %10.2f %10.2f", d.c_str(), vertices(d),
                  t.name.c_str(), build("build_seconds", t, d), mib(t, d));
      bench::PrintMicrosCell(q4);
      bench::PrintMicrosCell(q9);
      std::printf("\n");
    }
  }
  std::printf("\nExpected: ALT's landmarks take more space than CH, Arc "
              "Flags' and RE's less, so the\npaper's space argument holds "
              "for ALT only here; the paper finds CH faster than all.\n");

  std::printf("\nExtension: approximate distance oracle (epsilon sweep)\n");
  for (const std::string& d : datasets_) {
    if (build("index_bytes", pcpd_t, d) < 0) continue;
    std::printf("\n(%s)  n=%.0f, %.0f mixed queries\n", d.c_str(),
                vertices(d), cell("queries", "exact", d, "Q4+Q9", false, ch_t));
    std::printf("%-14s %10s %10s %10s %12s %12s\n", "Method", "pairs", "MiB",
                "prep (s)", "query (us)", "max err");
    bench::PrintRule(74);
    std::printf("%-14s %10s %10.2f %10s %12.2f %12s\n", "SILC (exact)", "-",
                mib(silc_t, d), "-", us("exact", d, "Q4+Q9", false, silc_t),
                "0");
    std::printf("%-14s %10.0f %10.2f %10s %12.2f %12s\n", "PCPD (exact)",
                build("pairs", pcpd_t, d), mib(pcpd_t, d), "-",
                us("exact", d, "Q4+Q9", false, pcpd_t), "0");
    for (double eps : kEpsilons) {
      const Technique t = OracleTechnique(eps);
      const std::string c = "approx " + t.config;
      std::printf("%-14s %10.0f %10.2f %10.2f %12.2f %11.2f%%\n",
                  t.config.c_str(), build("pairs", t, d), mib(t, d),
                  build("build_seconds", t, d),
                  us(c, d, "Q4+Q9", false, t),
                  100 * cell("max_rel_err", c, d, "Q4+Q9", false, t));
    }
  }
}

int PaperRun::Main(const std::string& out_path) {
  for (const DatasetSpec& spec : bench::BenchDatasets()) RunDataset(spec);
  RunTnrDefect();
  PrintTables();

  std::printf(
      "\nEvery timed cell: median and IQR of %d rounds in rotated order, "
      "samples of at least\n%.0f us, with CH timed twice per round as the "
      "A/A control (rows aa_ratio, aa_iqr).\nCorrectness: %zu cells "
      "checked against CH, %zu failures.\n",
      Experiment::kCellRounds, Experiment::kMinSampleMicros, cells_checked_,
      failures_.size());
  if (!out_path.empty()) {
    if (!rows_.WriteFile(out_path)) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  }
  return failures_.empty() ? 0 : 1;
}

}  // namespace
}  // namespace roadnet

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_paper [--out FILE]\n");
      return 2;
    }
  }
  roadnet::PaperRun run;
  return run.Main(out_path);
}
