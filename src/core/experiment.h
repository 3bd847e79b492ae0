#ifndef ROADNET_CORE_EXPERIMENT_H_
#define ROADNET_CORE_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "routing/path_index.h"
#include "workload/query_gen.h"

namespace roadnet {

// Result of timing one index construction (Figure 6's two metrics).
struct BuildResult {
  std::string method;
  double preprocess_seconds = 0;
  size_t index_bytes = 0;
  // The constructed index, ready for queries.
  std::unique_ptr<PathIndex> index;
};

// Average per-query latencies of one (method, query set) combination —
// the paper reports microseconds per query throughout Figures 7-11.
struct QueryResult {
  std::string method;
  std::string query_set;
  size_t num_queries = 0;
  double avg_distance_micros = 0;
  double avg_path_micros = 0;
};

// The experiment framework of Section 4: builds indexes under a space
// cap (the paper's "indexing structures should be memory resident ...
// less than 24 GB" rule, scaled) and measures query latencies.
class Experiment {
 public:
  // Times `factory` and wraps the result. `factory` may return null to
  // signal "not applicable" (e.g. method cannot index this input).
  static BuildResult MeasureBuild(
      const std::string& method,
      const std::function<std::unique_ptr<PathIndex>()>& factory);

  // Average distance-query latency over the set (microseconds). The query
  // context is created before the timer starts, so only queries are timed.
  static double MeasureDistanceQueries(const PathIndex* index,
                                       const QuerySet& queries);

  // Average shortest-path-query latency over the set (microseconds), timed
  // the same way.
  static double MeasurePathQueries(const PathIndex* index,
                                   const QuerySet& queries);

  // Both metrics for one (index, set) pair.
  static QueryResult MeasureQueries(const PathIndex* index,
                                    const QuerySet& queries);

  // Verifies that two indexes agree on distances over a query set;
  // returns the number of mismatches (0 = agreement). Benches use this to
  // guard measured numbers with correctness.
  static size_t CountDistanceMismatches(const PathIndex* a,
                                        const PathIndex* b,
                                        const QuerySet& queries);
};

}  // namespace roadnet

#endif  // ROADNET_CORE_EXPERIMENT_H_
