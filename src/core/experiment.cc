#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>

#include "util/timer.h"

namespace roadnet {

namespace {
// Discard target that the optimizer must assume is observed.
volatile uint64_t benchmark_sink_ = 0;

using Pairs = std::span<const std::pair<VertexId, VertexId>>;

// `repeats` back-to-back passes over `pairs` on a context made
// beforehand, timed as one sample, in microseconds per query. The sum
// sink keeps the optimizer from dropping query work.
double TimedPasses(const PathIndex* index, QueryContext* ctx, Pairs pairs,
                   bool paths, size_t repeats) {
  if (pairs.empty()) return 0;
  uint64_t sink = 0;
  Timer timer;
  for (size_t r = 0; r < repeats; ++r) {
    for (const auto& [s, t] : pairs) {
      sink += paths ? index->PathQuery(ctx, s, t).size()
                    : index->DistanceQuery(ctx, s, t);
    }
  }
  const double micros = timer.ElapsedMicros();
  benchmark_sink_ = sink;
  return micros / static_cast<double>(pairs.size() * repeats);
}

// Linearly interpolated quantile q in [0, 1] of a non-empty sample.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

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

CellResult Experiment::MeasureCell(const std::vector<CellEntry>& entries,
                                   const QuerySet& set, bool paths) {
  const size_t m = entries.size();
  if (m > kMaxCellEntries) {
    std::fprintf(stderr,
                 "MeasureCell: %zu entries, more than the %zu whose order "
                 "%d rounds balance\n",
                 m, kMaxCellEntries, kCellRounds);
    std::abort();
  }
  CellResult cell;
  cell.techniques.resize(m);
  cell.aa_ratio = cell.aa_iqr = std::nan("");
  std::vector<Pairs> pairs(m);
  std::vector<std::unique_ptr<QueryContext>> contexts(m);
  for (size_t i = 0; i < m; ++i) {
    const PathIndex* index = entries[i].index;
    if (index->Name() == "CH" &&
        entries[cell.reference].index->Name() != "CH") {
      cell.reference = i;
    }
    pairs[i] = Pairs(set.pairs).first(
        std::min(entries[i].max_queries, set.pairs.size()));
    contexts[i] = index->NewContext();
    QueryContext* ctx = contexts[i].get();
    TechniqueTiming& tech = cell.techniques[i];
    tech.queries = pairs[i].size();
    for (const auto& [s, t] : pairs[i]) {
      if (paths) {
        index->PathQuery(ctx, s, t);
        tech.answers.push_back(ctx->path_distance);
      } else {
        tech.answers.push_back(index->DistanceQuery(ctx, s, t));
      }
      tech.counters += ctx->counters;
    }
    const double pass_micros = TimedPasses(index, ctx, pairs[i], paths, 1) *
                               static_cast<double>(tech.queries);
    if (pass_micros > 0) {
      tech.repeats =
          static_cast<size_t>(std::ceil(kMinSampleMicros / pass_micros));
    }
  }
  if (set.pairs.empty()) return cell;

  // Slot m is the control: the reference's second sample of the round.
  // Round r runs the zig-zag order 0, 1, M-1, 2, M-2, ... of the M slots
  // shifted by r, or, with M odd, shifted by r / 2 and backwards on odd r.
  const size_t slots = m + 1;
  const bool odd = slots % 2 == 1;
  std::vector<std::vector<double>> micros(slots);
  for (int round = 0; round < kCellRounds; ++round) {
    const auto r = static_cast<size_t>(round);
    const size_t shift = odd ? r / 2 : r;
    for (size_t j = 0; j < slots; ++j) {
      const size_t k = odd && r % 2 == 1 ? slots - 1 - j : j;
      const size_t base = k == 0 ? 0 : k % 2 == 1 ? (k + 1) / 2 : slots - k / 2;
      const size_t slot = (base + shift) % slots;
      const size_t i = slot == m ? cell.reference : slot;
      micros[slot].push_back(TimedPasses(entries[i].index, contexts[i].get(),
                                         pairs[i], paths,
                                         cell.techniques[i].repeats));
    }
  }
  for (size_t i = 0; i < m; ++i) {
    TechniqueTiming& tech = cell.techniques[i];
    tech.median_micros = Quantile(micros[i], 0.5);
    tech.iqr_micros = Quantile(micros[i], 0.75) - Quantile(micros[i], 0.25);
  }
  std::vector<double> ratios;
  for (int round = 0; round < kCellRounds; ++round) {
    const double first = micros[cell.reference][round];
    if (first > 0) ratios.push_back(micros[m][round] / first);
  }
  if (!ratios.empty()) {
    cell.aa_ratio = Quantile(ratios, 0.5);
    cell.aa_iqr = Quantile(ratios, 0.75) - Quantile(ratios, 0.25);
  }
  return cell;
}

}  // namespace roadnet
