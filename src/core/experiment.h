#ifndef ROADNET_CORE_EXPERIMENT_H_
#define ROADNET_CORE_EXPERIMENT_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "graph/types.h"
#include "obs/query_counters.h"
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

// One technique of a timed cell. Slow baselines (bidirectional Dijkstra
// on large inputs) time only the first `max_queries` pairs of the set.
struct CellEntry {
  const PathIndex* index = nullptr;
  size_t max_queries = std::numeric_limits<size_t>::max();
};

// One technique's share of a timed cell.
struct TechniqueTiming {
  size_t queries = 0;
  // Back-to-back passes over the queries per timed sample: enough for the
  // sample to cover Experiment::kMinSampleMicros, from one warm pass.
  size_t repeats = 1;
  // Microseconds per query (the paper's unit): the median over the rounds
  // and the upper minus the lower quartile. Both 0 for an empty set.
  double median_micros = 0;
  double iqr_micros = 0;
  // One untimed pass: its counter totals, and per query the distance (for
  // path cells the length PathQuery reported).
  QueryCounters counters;
  std::vector<Distance> answers;
};

// A timed cell: every technique on one query set, one query kind.
struct CellResult {
  std::vector<TechniqueTiming> techniques;  // in entry order
  // The entry timed twice per round: the first whose index is named "CH",
  // otherwise entry 0.
  size_t reference = 0;
  // A/A control: the median and IQR over the rounds of the reference's
  // second sample over its first. NaN for an empty set.
  double aa_ratio = 0;
  double aa_iqr = 0;
};

// The experiment framework of Section 4: builds indexes under a space
// cap (the paper's "indexing structures should be memory resident ...
// less than 24 GB" rule, scaled) and measures query latencies.
class Experiment {
 public:
  // Rounds per timed cell.
  static constexpr int kCellRounds = 11;
  // The most entries a cell may have: within kCellRounds rounds, each of
  // their slots follows every other at least once.
  static constexpr size_t kMaxCellEntries = 9;
  // Shortest timed sample: below it the timer and the cache state one
  // pass inherits from the technique before it weigh on the reading.
  static constexpr double kMinSampleMicros = 1000;

  // Times `factory` and wraps the result. `factory` may return null to
  // signal "not applicable" (e.g. method cannot index this input).
  static BuildResult MeasureBuild(
      const std::string& method,
      const std::function<std::unique_ptr<PathIndex>()>& factory);

  // Times distance (or, with `paths`, shortest-path) queries of every
  // entry over `set`, the one way every figure's cells are timed. Each
  // entry gets one query context, made before any timer starts. First,
  // entry by entry, an untimed pass records the counters and answers, and
  // one timed warm pass sets how many passes make up the entry's sample
  // (at least kMinSampleMicros). Then kCellRounds rounds each time
  // one sample per entry plus a second sample of the reference (the
  // control), in an order rotated every round so that no technique is
  // favoured by the one timed just before it (a Williams design). With
  // M = entries + 1 even, over M rounds every slot (entry or control)
  // takes every position once and follows every other slot once; with M
  // odd, odd rounds run backwards, and over 2M rounds it is twice.
  // Aborts with a message on a cell of more than kMaxCellEntries entries,
  // whose order kCellRounds rounds cannot balance.
  static CellResult MeasureCell(const std::vector<CellEntry>& entries,
                                const QuerySet& set, bool paths);
};

}  // namespace roadnet

#endif  // ROADNET_CORE_EXPERIMENT_H_
