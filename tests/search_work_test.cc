// Pins the search work of the Dijkstra-family techniques — bidirectional
// Dijkstra, RE, ALT, Arc Flags and HiTi — of CH and of the hub labels
// built from it, and the delta-redundancy meter's ratios on DE' and NH'
// over seeded Q1..Q10 pairs, and checks the paper's settled-vertex
// ranking over the same pairs.
//
// Every QueryCounters field is pinned as a total of its own, for distance
// and path queries separately, so a change to a search loop that moves
// its work names the field that moved. The answers are pinned as sums of
// distances and of path vertex counts.

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "alt/alt_index.h"
#include "arcflags/arc_flags.h"
#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "dijkstra/dijkstra.h"
#include "hiti/partition_overlay.h"
#include "hl/hl_index.h"
#include "pcpd/redundancy.h"
#include "reach/reach_index.h"
#include "tnr/tnr_index.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// vertices_settled, edges_relaxed, heap_pushes, heap_pops,
// shortcuts_unpacked, edge_searches, table_lookups, tree_lookups.
using CounterTotals = std::array<uint64_t, 8>;

struct Work {
  CounterTotals distance_counters;
  CounterTotals path_counters;
  uint64_t distance_sum;
  uint64_t path_vertices;
};

struct Pin {
  const char* technique;
  Work work;
};

CounterTotals Totals(const QueryCounters& c) {
  return {c.vertices_settled, c.edges_relaxed,      c.heap_pushes,
          c.heap_pops,        c.shortcuts_unpacked, c.edge_searches,
          c.table_lookups,    c.tree_lookups};
}

constexpr const char* kCounterNames[8] = {
    "vertices_settled",   "edges_relaxed", "heap_pushes",   "heap_pops",
    "shortcuts_unpacked", "edge_searches", "table_lookups", "tree_lookups"};

// The seeded Q1..Q10 pairs of one dataset, concatenated.
std::vector<std::pair<VertexId, VertexId>> Pairs(const Graph& g,
                                                 uint64_t seed) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (const QuerySet& set : GenerateLInfQuerySets(g, 10, seed)) {
    pairs.insert(pairs.end(), set.pairs.begin(), set.pairs.end());
  }
  return pairs;
}

Work Measure(const PathIndex& index,
             const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  const auto ctx = index.NewContext();
  QueryCounters distance_counters, path_counters;
  Work work{};
  for (const auto& [s, t] : pairs) {
    work.distance_sum += index.DistanceQuery(ctx.get(), s, t);
    distance_counters += ctx->counters;
    work.path_vertices += index.PathQuery(ctx.get(), s, t).size();
    path_counters += ctx->counters;
  }
  work.distance_counters = Totals(distance_counters);
  work.path_counters = Totals(path_counters);
  return work;
}

void ExpectPinned(const std::string& dataset, const PathIndex& index,
                  const std::vector<std::pair<VertexId, VertexId>>& pairs,
                  const Work& want) {
  const Work got = Measure(index, pairs);
  const std::string what = dataset + " " + index.Name();
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got.distance_counters[i], want.distance_counters[i])
        << what << " DistanceQuery " << kCounterNames[i];
    EXPECT_EQ(got.path_counters[i], want.path_counters[i])
        << what << " PathQuery " << kCounterNames[i];
  }
  EXPECT_EQ(got.distance_sum, want.distance_sum) << what << " distances";
  EXPECT_EQ(got.path_vertices, want.path_vertices) << what << " paths";
}

// Builds each technique on `dataset` and checks it against its pin.
void ExpectDatasetPinned(size_t dataset, uint64_t seed,
                         const std::vector<Pin>& pins) {
  const DatasetSpec& spec = PaperDatasets()[dataset];
  const Graph g = BuildDataset(spec);
  const auto pairs = Pairs(g, seed);
  ASSERT_EQ(pins.size(), 7u);
  auto ch = std::make_unique<ChIndex>(g);
  auto hl = std::make_unique<HlIndex>(g, *ch);
  // Destroyed last to first, so the labels go before their hierarchy.
  const std::unique_ptr<PathIndex> indexes[] = {
      std::make_unique<BidirectionalDijkstra>(g),
      std::make_unique<ReachIndex>(g),
      std::make_unique<AltIndex>(g),
      std::make_unique<ArcFlagsIndex>(g),
      std::make_unique<PartitionOverlayIndex>(g),
      std::move(ch),
      std::move(hl)};
  for (size_t i = 0; i < pins.size(); ++i) {
    ASSERT_EQ(indexes[i]->Name(), pins[i].technique);
    ExpectPinned(spec.name, *indexes[i], pairs, pins[i].work);
  }
}

TEST(SearchWork, PinnedOnDE) {
  ExpectDatasetPinned(
      0, 71,
      {{"Dijkstra",
        {{6085, 21510, 9709, 6085, 0, 0, 0, 0},
         {6085, 21510, 9709, 6085, 0, 0, 0, 0},
         408789,
         1006}},
       {"RE",
        {{5157, 13927, 7879, 5157, 0, 0, 0, 0},
         {5157, 13927, 7879, 5157, 0, 0, 0, 0},
         408789,
         1006}},
       {"ALT",
        {{2021, 6821, 3899, 2021, 0, 0, 46788, 0},
         {2021, 6821, 3899, 2021, 0, 0, 46788, 0},
         408789,
         1006}},
       {"ArcFlags",
        {{2978, 8073, 3972, 2978, 0, 0, 0, 0},
         {2978, 8073, 3972, 2978, 0, 0, 0, 0},
         408789,
         1006}},
       {"HiTi",
        {{6850, 47571, 11145, 6850, 0, 0, 0, 0},
         {6850, 52343, 13269, 8450, 103, 0, 0, 0},
         408789,
         1006}},
       {"CH",
        {{1693, 4663, 2436, 1693, 0, 0, 0, 0},
         {1693, 4663, 2436, 1693, 537, 0, 0, 0},
         408789,
         1006}},
       {"HL",
        {{0, 0, 0, 0, 0, 0, 2945, 0},
         {1693, 4663, 2436, 1693, 537, 0, 0, 0},
         408789,
         1006}}});
}

TEST(SearchWork, PinnedOnNH) {
  ExpectDatasetPinned(
      1, 72,
      {{"Dijkstra",
        {{11241, 40904, 17894, 11241, 0, 0, 0, 0},
         {11241, 40904, 17894, 11241, 0, 0, 0, 0},
         634035,
         1320}},
       {"RE",
        {{10147, 27125, 14826, 10147, 0, 0, 0, 0},
         {10147, 27125, 14826, 10147, 0, 0, 0, 0},
         634035,
         1320}},
       {"ALT",
        {{2797, 9866, 5457, 2797, 0, 0, 65484, 0},
         {2797, 9866, 5457, 2797, 0, 0, 65484, 0},
         634035,
         1320}},
       {"ArcFlags",
        {{4231, 11791, 5586, 4231, 0, 0, 0, 0},
         {4231, 11791, 5586, 4231, 0, 0, 0, 0},
         634035,
         1320}},
       {"HiTi",
        {{12879, 187635, 24174, 12879, 0, 0, 0, 0},
         {12879, 195456, 27785, 15459, 172, 0, 0, 0},
         634035,
         1320}},
       {"CH",
        {{2070, 6248, 3003, 2070, 0, 0, 0, 0},
         {2070, 6248, 3003, 2070, 816, 0, 0, 0},
         634035,
         1320}},
       {"HL",
        {{0, 0, 0, 0, 0, 0, 3368, 0},
         {2070, 6248, 3003, 2070, 816, 0, 0, 0},
         634035,
         1320}}});
}

// RedundancyMeter::Ratio over the same pairs: how many have no
// core-disjoint path, and the sum of the others' ratios.
TEST(SearchWork, RedundancyRatiosPinned) {
  struct RatioPin {
    size_t dataset;
    uint64_t seed;
    size_t infinite;
    double finite_sum;
  };
  const RatioPin pins[] = {{0, 71, 2, 233.4837401038242},
                           {1, 72, 0, 249.57504552790425}};
  for (const RatioPin& pin : pins) {
    const Graph g = BuildDataset(PaperDatasets()[pin.dataset]);
    RedundancyMeter meter(g);
    size_t infinite = 0;
    double finite_sum = 0;
    for (const auto& [s, t] : Pairs(g, pin.seed)) {
      const double ratio = meter.Ratio(s, t);
      if (std::isinf(ratio)) {
        ++infinite;
      } else {
        finite_sum += ratio;
      }
    }
    EXPECT_EQ(infinite, pin.infinite) << PaperDatasets()[pin.dataset].name;
    EXPECT_DOUBLE_EQ(finite_sum, pin.finite_sum)
        << PaperDatasets()[pin.dataset].name;
  }
}

// Section 4's search-space argument: on the same pairs, plain Dijkstra
// settles at least as many vertices on average as bidirectional
// Dijkstra, which settles at least as many as CH; and every query TNR
// answers from its table settles none. Totals over one pair list
// compare as the averages do.
TEST(SearchWork, SettledVerticesRankAndTnrTableAnswersSettleNone) {
  struct Case {
    size_t dataset;
    uint64_t seed;
    size_t table_answered;
  };
  for (const Case& c : {Case{0, 71, 29}, Case{1, 72, 28}}) {
    const DatasetSpec& spec = PaperDatasets()[c.dataset];
    const Graph g = BuildDataset(spec);
    Dijkstra dijkstra(g);
    const BidirectionalDijkstra bidi(g);
    const ChIndex ch(g);
    const TnrIndex tnr(g, &ch, TnrConfig{});
    const auto bidi_ctx = bidi.NewContext();
    const auto ch_ctx = ch.NewContext();
    const auto tnr_ctx = tnr.NewContext();
    uint64_t dijkstra_settled = 0, bidi_settled = 0, ch_settled = 0;
    size_t table_answered = 0;
    for (const auto& [s, t] : Pairs(g, c.seed)) {
      dijkstra.Run(s, t);
      dijkstra_settled += dijkstra.Counters().vertices_settled;
      bidi.DistanceQuery(bidi_ctx.get(), s, t);
      bidi_settled += bidi_ctx->counters.vertices_settled;
      ch.DistanceQuery(ch_ctx.get(), s, t);
      ch_settled += ch_ctx->counters.vertices_settled;
      if (!tnr.TableApplicable(s, t)) continue;
      ++table_answered;
      tnr.DistanceQuery(tnr_ctx.get(), s, t);
      EXPECT_EQ(tnr_ctx->counters.vertices_settled, 0u)
          << spec.name << " TNR table query " << s << " -> " << t;
    }
    EXPECT_GE(dijkstra_settled, bidi_settled) << spec.name;
    EXPECT_GE(bidi_settled, ch_settled) << spec.name;
    EXPECT_GT(ch_settled, 0u) << spec.name;
    // The pairs reach the table, so the check above is not vacuous.
    EXPECT_EQ(table_answered, c.table_answered) << spec.name;
  }
}

}  // namespace
}  // namespace roadnet
