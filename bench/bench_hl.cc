// Hub labels vs. the CH they were built from: the paper's
// space-for-time endgame. Both indexes answer from the SAME contraction
// (HL labels are the CH's pruned upward search spaces), so the latency
// gap is purely merge-intersection vs. bidirectional upward search, and
// the space gap is purely the flattened label arrays.
//
//   bench_hl [--quick] [--out BENCH_hl.json]
//
// Measures distance and path queries across Q1..Q10 per dataset, prints
// a paper-style table plus a label-size-vs-CH-space summary, and writes
// machine-readable JSONL (validated by scripts/validate_metrics.py).
// Exits nonzero if any distance disagrees between HL and CH, if HL is
// not faster than CH on the aggregate Q6..Q10 distance workload of the
// largest dataset, or if building the labels of the largest dataset
// takes longer than the contraction they start from — the regression
// gates scripts/check.sh runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "core/experiment.h"
#include "hl/hl_index.h"
#include "obs/metrics.h"
#include "routing/path_index.h"
#include "util/bytes.h"
#include "workload/query_gen.h"

namespace roadnet {
namespace {

// Paired best-of-three measurement, interleaved so slow machine phases
// (frequency scaling, noisy neighbours) hit both indexes rather than
// biasing one; each sample repeats the set until it covers at least
// kMinSampleMicros of wall clock. Same discipline as bench_ch_layout.
constexpr double kMinSampleMicros = 20000.0;

struct PairedTimes {
  double ch;
  double hl;
};

PairedTimes MeasureBoth(const PathIndex* ch, const PathIndex* hl,
                        const QuerySet& set,
                        double (*pass)(const PathIndex*, const QuerySet&)) {
  const double warm_ch = pass(ch, set);
  const double warm_hl = pass(hl, set);
  const double pass_micros =
      std::max(warm_ch, warm_hl) * static_cast<double>(set.pairs.size());
  const int reps =
      std::max(1, static_cast<int>(kMinSampleMicros / (pass_micros + 1) + 1));
  PairedTimes best{warm_ch, warm_hl};
  for (int sample = 0; sample < 3; ++sample) {
    double total_ch = 0, total_hl = 0;
    for (int r = 0; r < reps; ++r) total_ch += pass(ch, set);
    for (int r = 0; r < reps; ++r) total_hl += pass(hl, set);
    best.ch = std::min(best.ch, total_ch / reps);
    best.hl = std::min(best.hl, total_hl / reps);
  }
  return best;
}

}  // namespace
}  // namespace roadnet

int main(int argc, char** argv) {
  using namespace roadnet;

  bool quick = bench::FastMode();
  std::string out_path = "BENCH_hl.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_hl [--quick] [--out FILE.json]\n");
      return 2;
    }
  }

  // The gated (largest) dataset is W-US' in quick mode: big enough that
  // the CH baseline sits at its published 1.1-1.6 µs (BENCH_ch_layout)
  // and the label arrays dwarf L2. Full mode adds the smaller paper
  // datasets for the space-growth curve and the larger ones for scale,
  // and gates on US'.
  std::vector<DatasetSpec> specs;
  for (const auto& spec : PaperDatasets()) {
    if ((!quick && (spec.name == "CO'" || spec.name == "CA'")) ||
        spec.name == "FL'" || spec.name == "W-US'" ||
        (!quick && (spec.name == "C-US'" || spec.name == "US'"))) {
      specs.push_back(spec);
    }
  }

  MetricsRegistry metrics;
  std::printf("Hub labels vs. CH (one contraction: labels are its pruned "
              "upward search spaces)\n");

  bool gate_failed = false;
  bool build_gate_failed = false;
  for (size_t di = 0; di < specs.size(); ++di) {
    const DatasetSpec& spec = specs[di];
    const bool largest = di + 1 == specs.size();
    Graph g = BuildDataset(spec);
    const auto contract_start = std::chrono::steady_clock::now();
    ChIndex ch(g);
    const auto build_start = std::chrono::steady_clock::now();
    HlIndex hl(g, ch);
    const auto build_end = std::chrono::steady_clock::now();
    const double contract_seconds =
        std::chrono::duration<double>(build_start - contract_start).count();
    const double build_seconds =
        std::chrono::duration<double>(build_end - build_start).count();

    const auto sets =
        GenerateLInfQuerySets(g, quick ? 250 : 500, 4300 + spec.seed);

    std::printf("\n(%s)  n=%u, contraction %.2fs, label build %.2fs, "
                "avg %.1f hubs/label (max %zu)\n",
                spec.name.c_str(), g.NumVertices(), contract_seconds,
                build_seconds, hl.AvgLabelEntries(), hl.MaxLabelEntries());
    // The build-time gate: labels derived from the hierarchy's upward
    // arcs must cost less than the contraction that produced them.
    if (largest && build_seconds > contract_seconds) build_gate_failed = true;
    std::printf("%-5s %8s  %11s %11s %8s  %11s %11s %8s\n", "set", "queries",
                "dist ch", "dist hl", "speedup", "path ch", "path hl",
                "speedup");
    bench::PrintRule(88);

    double hi_ch_dist = 0, hi_hl_dist = 0;  // Q6..Q10 aggregate
    for (const QuerySet& set : sets) {
      if (set.pairs.empty()) continue;
      if (Experiment::CountDistanceMismatches(&ch, &hl, set) != 0) {
        std::fprintf(stderr, "FAIL: HL disagrees with CH on %s/%s distances\n",
                     spec.name.c_str(), set.name.c_str());
        return 1;
      }
      const PairedTimes dist =
          MeasureBoth(&ch, &hl, set, &Experiment::MeasureDistanceQueries);
      const PairedTimes path =
          MeasureBoth(&ch, &hl, set, &Experiment::MeasurePathQueries);
      const bool high_set = set.name >= "Q6" || set.name == "Q10";
      if (high_set) {
        hi_ch_dist += dist.ch * set.pairs.size();
        hi_hl_dist += dist.hl * set.pairs.size();
      }
      std::printf("%-5s %8zu  %11.2f %11.2f %7.2fx  %11.2f %11.2f %7.2fx\n",
                  set.name.c_str(), set.pairs.size(), dist.ch, dist.hl,
                  dist.ch / dist.hl, path.ch, path.hl, path.ch / path.hl);
      const std::vector<std::pair<std::string, std::string>> labels = {
          {"dataset", spec.name}, {"set", set.name}};
      metrics.Add("hl_dist_us", dist.hl, labels);
      metrics.Add("hl_ch_dist_us", dist.ch, labels);
      metrics.Add("hl_path_us", path.hl, labels);
      metrics.Add("hl_ch_path_us", path.ch, labels);
      metrics.Add("hl_dist_speedup", dist.ch / dist.hl, labels);
    }

    if (hi_hl_dist > 0) {
      const double speedup = hi_ch_dist / hi_hl_dist;
      std::printf("%s Q6..Q10 distance speedup over CH: %.2fx\n",
                  spec.name.c_str(), speedup);
      metrics.Add("hl_dist_speedup_q6_q10", speedup, {{"dataset", spec.name}});
      // The regression gate: on the largest dataset a label merge must
      // beat the rank-SoA CH search it was derived from.
      if (largest && speedup <= 1.0) gate_failed = true;
    }

    // The space side of the trade: label arrays vs. the CH structures.
    const double label_bytes = static_cast<double>(hl.LabelBytes());
    const double ch_bytes = static_cast<double>(ch.IndexBytes());
    std::printf("space: labels %.2f MiB vs CH %.2f MiB (%.2fx)\n",
                BytesToMiB(hl.LabelBytes()), BytesToMiB(ch.IndexBytes()),
                label_bytes / ch_bytes);
    metrics.Add("hl_label_bytes", label_bytes, {{"dataset", spec.name}});
    metrics.Add("hl_ch_index_bytes", ch_bytes, {{"dataset", spec.name}});
    metrics.Add("hl_space_ratio", label_bytes / ch_bytes,
                {{"dataset", spec.name}});
    metrics.Add("hl_avg_label_entries", hl.AvgLabelEntries(),
                {{"dataset", spec.name}});
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
  if (gate_failed) {
    std::fprintf(stderr,
                 "FAIL: HL distance queries not faster than CH on the "
                 "Q6..Q10 workload of the largest dataset\n");
  }
  if (build_gate_failed) {
    std::fprintf(stderr,
                 "FAIL: the label build took longer than the contraction "
                 "on the largest dataset\n");
  }
  return gate_failed || build_gate_failed ? 1 : 0;
}
