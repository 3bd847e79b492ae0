#include "core/experiment.h"

#include "util/timer.h"

namespace roadnet {

namespace {
// Discard target that the optimizer must assume is observed.
volatile uint64_t benchmark_sink_ = 0;
}  // namespace

BuildResult Experiment::MeasureBuild(
    const std::string& method,
    const std::function<std::unique_ptr<PathIndex>()>& factory) {
  BuildResult result;
  result.method = method;
  Timer timer;
  result.index = factory();
  result.preprocess_seconds = timer.ElapsedSeconds();
  if (result.index != nullptr) result.index_bytes = result.index->IndexBytes();
  return result;
}

double Experiment::MeasureDistanceQueries(const PathIndex* index,
                                          const QuerySet& queries) {
  if (queries.pairs.empty()) return 0;
  const auto ctx = index->NewContext();
  // The sum sink keeps the optimizer from dropping query work.
  uint64_t sink = 0;
  Timer timer;
  for (const auto& [s, t] : queries.pairs) {
    sink += index->DistanceQuery(ctx.get(), s, t);
  }
  benchmark_sink_ = sink;
  return timer.ElapsedMicros() / static_cast<double>(queries.pairs.size());
}

double Experiment::MeasurePathQueries(const PathIndex* index,
                                      const QuerySet& queries) {
  if (queries.pairs.empty()) return 0;
  const auto ctx = index->NewContext();
  uint64_t sink = 0;
  Timer timer;
  for (const auto& [s, t] : queries.pairs) {
    sink += index->PathQuery(ctx.get(), s, t).size();
  }
  benchmark_sink_ = sink;
  return timer.ElapsedMicros() / static_cast<double>(queries.pairs.size());
}

QueryResult Experiment::MeasureQueries(const PathIndex* index,
                                       const QuerySet& queries) {
  QueryResult result;
  result.method = index->Name();
  result.query_set = queries.name;
  result.num_queries = queries.pairs.size();
  result.avg_distance_micros = MeasureDistanceQueries(index, queries);
  result.avg_path_micros = MeasurePathQueries(index, queries);
  return result;
}

size_t Experiment::CountDistanceMismatches(const PathIndex* a,
                                           const PathIndex* b,
                                           const QuerySet& queries) {
  const auto ctx_a = a->NewContext();
  const auto ctx_b = b->NewContext();
  size_t mismatches = 0;
  for (const auto& [s, t] : queries.pairs) {
    if (a->DistanceQuery(ctx_a.get(), s, t) !=
        b->DistanceQuery(ctx_b.get(), s, t)) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace roadnet
