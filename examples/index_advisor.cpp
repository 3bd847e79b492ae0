// Executable form of the paper's selection guidelines (Sections 4.7, 5):
// describe a workload, get a technique recommendation, and optionally
// validate it empirically by building the candidates on a synthetic
// network and measuring them on a matching workload.
//
//   ./index_advisor [--vertices N] [--paths F] [--long-range F]
//                   [--no-space-constraint] [--validate]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "ch/ch_index.h"
#include "core/experiment.h"
#include "core/guidelines.h"
#include "graph/generator.h"
#include "silc/silc_index.h"
#include "tnr/tnr_index.h"
#include "workload/query_gen.h"

int main(int argc, char** argv) {
  using namespace roadnet;

  WorkloadProfile profile;
  profile.num_vertices = 100000;
  profile.path_query_fraction = 0.5;
  profile.long_range_fraction = 0.5;
  profile.space_constrained = true;
  bool validate = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--vertices") && i + 1 < argc) {
      profile.num_vertices = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--paths") && i + 1 < argc) {
      profile.path_query_fraction = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--long-range") && i + 1 < argc) {
      profile.long_range_fraction = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--no-space-constraint")) {
      profile.space_constrained = false;
    } else if (!std::strcmp(argv[i], "--validate")) {
      validate = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--vertices N] [--paths F] [--long-range F] "
                   "[--no-space-constraint] [--validate]\n",
                   argv[0]);
      return 1;
    }
  }

  const Recommendation rec = RecommendMethod(profile);
  std::printf("workload: n=%u, %.0f%% path queries, %.0f%% long-range, "
              "space %s\n",
              profile.num_vertices, 100 * profile.path_query_fraction,
              100 * profile.long_range_fraction,
              profile.space_constrained ? "constrained" : "unconstrained");
  std::printf("recommendation: %s\n  %s\n", rec.method.c_str(),
              rec.rationale.c_str());
  if (!validate) return 0;

  // Empirical check on a scaled synthetic network (capped for wall clock).
  GeneratorConfig config;
  config.target_vertices = std::min(profile.num_vertices, 20000u);
  config.seed = 77;
  Graph g = GenerateRoadNetwork(config);
  const auto sets = GenerateLInfQuerySets(g, 200, 13);
  QuerySet workload;
  workload.name = "profile";
  // Approximate the profile: near sets for short-range, far for long.
  for (const auto& set : sets) {
    const bool long_range = set.name >= "Q7" || set.name == "Q10";
    const double want =
        long_range ? profile.long_range_fraction : 1 - profile.long_range_fraction;
    const size_t take = static_cast<size_t>(want * set.pairs.size() / 5);
    workload.pairs.insert(workload.pairs.end(), set.pairs.begin(),
                          set.pairs.begin() +
                              std::min(take, set.pairs.size()));
  }
  std::printf("\nvalidation on n=%u (%zu mixed queries):\n", g.NumVertices(),
              workload.pairs.size());

  ChIndex ch(g);
  TnrConfig tnr_config;
  tnr_config.grid_resolution = DefaultGridResolution(g.NumVertices());
  TnrIndex tnr(g, &ch, tnr_config);
  std::unique_ptr<SilcIndex> silc;
  if (g.NumVertices() <= 5000) silc = std::make_unique<SilcIndex>(g);

  std::vector<CellEntry> entries = {{&ch}, {&tnr}};
  if (silc) entries.push_back({silc.get()});
  const CellResult dist = Experiment::MeasureCell(entries, workload, false);
  const CellResult path = Experiment::MeasureCell(entries, workload, true);
  for (size_t i = 0; i < entries.size(); ++i) {
    const PathIndex* index = entries[i].index;
    std::printf("  %-6s %8.1f MiB   dist %8.2f us   path %8.2f us\n",
                index->Name().c_str(),
                index->IndexBytes() / (1024.0 * 1024.0),
                dist.techniques[i].median_micros,
                path.techniques[i].median_micros);
  }
  return 0;
}
