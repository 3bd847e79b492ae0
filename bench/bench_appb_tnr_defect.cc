// Appendix B: the defect of Bast et al.'s TNR access-node computation.
//
// Builds TNR twice over networks containing long "bridge" edges (the
// geometry of the paper's Figure 12(b) counter-example): once with the
// corrected per-vertex access-node computation, once with the flawed
// enumeration that misses shell-jumping edges. Reports, per dataset, how
// many table-answerable queries each variant gets wrong against Dijkstra
// ground truth and the worst relative error. The corrected variant must
// be exact; the flawed one is not.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "dijkstra/dijkstra.h"
#include "graph/generator.h"
#include "tnr/tnr_index.h"
#include "util/rng.h"

int main() {
  using namespace roadnet;

  std::printf("Appendix B: flawed vs corrected TNR access-node computation\n");
  std::printf("%-10s %8s %8s | %14s %14s | %12s\n", "Network", "n",
              "queries", "correct wrong", "flawed wrong", "max rel err");
  bench::PrintRule(78);

  const uint32_t sizes[] = {2000, 5000, 10000};
  for (uint32_t target : sizes) {
    if (bench::FastMode() && target > 2000) continue;
    GeneratorConfig gc;
    gc.target_vertices = target;
    gc.seed = 4242 + target;
    gc.long_edge_probability = 0.03;  // bridges/tunnels that jump cells
    // Span ~3 grid cells so a bridge can hop clean over a shell ring.
    const uint32_t side =
        static_cast<uint32_t>(std::ceil(std::sqrt(double(target))));
    const uint32_t res = bench::PaperGridResolution();
    gc.long_edge_span = std::max(6u, 3 * side / res + 2);
    Graph g = GenerateRoadNetwork(gc);
    ChIndex ch(g);

    TnrConfig correct_config;
    correct_config.grid_resolution = bench::PaperGridResolution();
    TnrIndex correct(g, &ch, correct_config);
    TnrConfig flawed_config = correct_config;
    flawed_config.flawed_access_nodes = true;
    TnrIndex flawed(g, &ch, flawed_config);

    Dijkstra truth(g);
    const auto correct_ctx = correct.NewContext();
    const auto flawed_ctx = flawed.NewContext();
    Rng rng(7);
    size_t queries = 0, correct_wrong = 0, flawed_wrong = 0;
    double max_rel_err = 0;
    const size_t kWanted = bench::FastMode() ? 100 : 400;
    size_t attempts = 0;
    while (queries < kWanted && attempts < kWanted * 50) {
      ++attempts;
      const VertexId s = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      const VertexId t = static_cast<VertexId>(rng.NextBelow(g.NumVertices()));
      // Only table-answered queries exercise the access nodes.
      if (s == t || !correct.TableApplicable(s, t)) continue;
      ++queries;
      const Distance d = truth.Run(s, t);
      if (correct.DistanceQuery(correct_ctx.get(), s, t) != d) {
        ++correct_wrong;
      }
      const Distance f = flawed.DistanceQuery(flawed_ctx.get(), s, t);
      if (f != d) {
        ++flawed_wrong;
        if (f != kInfDistance && d > 0) {
          max_rel_err = std::max(
              max_rel_err, static_cast<double>(f) / static_cast<double>(d) - 1.0);
        }
      }
    }
    std::printf("bridges-%u %8u %8zu | %14zu %14zu | %11.2f%%\n", target,
                g.NumVertices(), queries, correct_wrong, flawed_wrong,
                100.0 * max_rel_err);
  }
  std::printf(
      "\nThe corrected computation (Section 3.3 Remarks) must report 0 "
      "wrong answers;\nthe flawed one returns over-estimates whenever the "
      "only exit of a region is a\nshell-jumping edge (Figure 12(b)).\n");
  return 0;
}
