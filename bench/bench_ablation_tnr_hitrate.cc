// Ablation (ours): TNR locality-filter routing per query set — how many
// queries in each Qi the coarse table, the hybrid fine table, and the
// fallback answer. This quantifies the mechanism behind Figures 9/14: TNR
// == CH on Q1..Q5 (all fallback), mixed at Q5/Q6, all-table from Q7 up.

#include <cstdio>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "tnr/tnr_index.h"
#include "workload/query_gen.h"

int main() {
  using namespace roadnet;

  std::printf("TNR locality-filter hit rates per query set\n");
  for (const auto& spec : bench::BenchDatasets()) {
    if (spec.name != "CO'" && spec.name != "CA'") continue;
    if (bench::FastMode() && spec.name == "CA'") continue;
    Graph g = BuildDataset(spec);
    ChIndex ch(g);
    TnrConfig config;
    config.grid_resolution = bench::PaperGridResolution();
    config.hybrid = true;
    TnrIndex tnr(g, &ch, config);
    const auto sets =
        GenerateLInfQuerySets(g, bench::QueriesPerSet(), 2200 + spec.seed);

    std::printf("\n(%s)  n=%u, D=%u hybrid\n", spec.name.c_str(),
                g.NumVertices(), config.grid_resolution);
    std::printf("%-6s %8s %12s %12s %12s\n", "Set", "queries",
                "coarse table", "fine table", "fallback");
    bench::PrintRule(56);
    for (const auto& set : sets) {
      if (set.pairs.empty()) continue;
      const auto ctx = tnr.NewContext();
      for (auto [s, t] : set.pairs) tnr.DistanceQuery(ctx.get(), s, t);
      const TnrStats st = tnr.RoutingStats(ctx.get());
      std::printf("%-6s %8zu %12zu %12zu %12zu\n", set.name.c_str(),
                  set.pairs.size(), st.coarse_table_answered,
                  st.fine_table_answered, st.fallback_answered);
    }
  }
  std::printf(
      "\nExpected: near sets 100%% fallback, far sets 100%% coarse table, "
      "with the\nfine (hybrid) table picking up a band in between.\n");
  return 0;
}
