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
// Exits nonzero if any distance or path length disagrees between HL and
// CH, if HL is not faster than CH on the aggregate Q6..Q10 distance
// workload of the largest dataset, if building the labels of the
// largest dataset takes longer than the contraction they start from, if
// the largest dataset's labels keep more bytes than their two-tier
// layout needs (6 per entry, references and block slack), or if the
// serialized hierarchy of FL' or W-US' is not the pinned one — the
// regression gates scripts/check.sh runs.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_index.h"
#include "core/experiment.h"
#include "hl/hl_index.h"
#include "io/crc32.h"
#include "obs/metrics.h"
#include "routing/path_index.h"
#include "util/bytes.h"
#include "util/timer.h"
#include "workload/query_gen.h"

namespace {

// CRC-32 of ChIndex::Serialize's output under the default ChConfig, per
// dataset. W-US' is the hierarchy the batch benchmark queries; a change
// to the contraction must reproduce both bit for bit.
struct PinnedHierarchy {
  const char* dataset;
  uint32_t crc;
};
constexpr PinnedHierarchy kPinnedHierarchies[] = {
    {"FL'", 0x315ccf14u},
    {"W-US'", 0x2713025au},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace roadnet;

  bool quick = false;
  std::string out_path = "BENCH_hl.json";
  if (!bench::ParseQuickOut(argc, argv, &quick, &out_path)) return 2;

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
  bool space_gate_failed = false;
  bool hierarchy_gate_failed = false;
  for (size_t di = 0; di < specs.size(); ++di) {
    const DatasetSpec& spec = specs[di];
    const bool largest = di + 1 == specs.size();
    Graph g = BuildDataset(spec);
    Timer timer;
    ChIndex ch(g);
    const double contract_seconds = timer.ElapsedSeconds();
    timer.Reset();
    HlIndex hl(g, ch);
    const double build_seconds = timer.ElapsedSeconds();
    for (const PinnedHierarchy& pin : kPinnedHierarchies) {
      if (spec.name != pin.dataset) continue;
      std::ostringstream serialized;
      ch.Serialize(serialized);
      const uint32_t crc = Crc32(serialized.view());
      if (crc != pin.crc) {
        std::fprintf(stderr,
                     "FAIL: the %s hierarchy's CRC-32 is %08x, not the "
                     "pinned %08x\n",
                     spec.name.c_str(), crc, pin.crc);
        hierarchy_gate_failed = true;
      }
    }

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
      // CH, entry 0, is each cell's reference.
      const CellResult dist =
          Experiment::MeasureCell({{&ch}, {&hl}}, set, false);
      const CellResult path =
          Experiment::MeasureCell({{&ch}, {&hl}}, set, true);
      if (dist.techniques[0].answers != dist.techniques[1].answers ||
          path.techniques[0].answers != path.techniques[1].answers) {
        std::fprintf(stderr,
                     "FAIL: HL disagrees with CH on %s/%s distances or paths\n",
                     spec.name.c_str(), set.name.c_str());
        return 1;
      }
      const double dist_ch = dist.techniques[0].median_micros;
      const double dist_hl = dist.techniques[1].median_micros;
      const double path_ch = path.techniques[0].median_micros;
      const double path_hl = path.techniques[1].median_micros;
      const bool high_set = set.name >= "Q6" || set.name == "Q10";
      if (high_set) {
        hi_ch_dist += dist_ch * set.pairs.size();
        hi_hl_dist += dist_hl * set.pairs.size();
      }
      std::printf("%-5s %8zu  %11.2f %11.2f %7.2fx  %11.2f %11.2f %7.2fx\n",
                  set.name.c_str(), set.pairs.size(), dist_ch, dist_hl,
                  dist_ch / dist_hl, path_ch, path_hl, path_ch / path_hl);
      const std::vector<std::pair<std::string, std::string>> labels = {
          {"dataset", spec.name}, {"set", set.name}};
      metrics.Add("hl_dist_us", dist_hl, labels);
      metrics.Add("hl_ch_dist_us", dist_ch, labels);
      metrics.Add("hl_path_us", path_hl, labels);
      metrics.Add("hl_ch_path_us", path_ch, labels);
      metrics.Add("hl_dist_speedup", dist_ch / dist_hl, labels);
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
    // The space gate. A high-tier entry takes 6 bytes (a u16 hub, a u32
    // distance); a low-tier one 2 more, and a label with a low tier 4
    // more for its count; each vertex has an 8-byte reference. The blocks
    // add the last block's empty tail, under one block, and per block
    // the tail it skipped, under the longest run, plus its table entry.
    size_t low_entries = 0;
    size_t low_labels = 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const size_t low = hl.Label(v).low_size();
      low_entries += low;
      low_labels += low > 0 ? 1 : 0;
    }
    const size_t entry_bytes =
        6 * hl.NumLabelEntries() + 2 * low_entries + 4 * low_labels;
    const size_t block_bytes = HlIndex::kBlockSlots * sizeof(uint16_t);
    const size_t longest_run = 8 * hl.MaxLabelEntries() + 4;
    const size_t blocks = entry_bytes / (block_bytes - longest_run) + 1;
    const size_t space_bound = entry_bytes + 8 * size_t{g.NumVertices()} +
                               block_bytes +
                               blocks * (longest_run + 2 * sizeof(void*));
    const double high_share =
        1.0 - static_cast<double>(low_entries) /
                  static_cast<double>(hl.NumLabelEntries());
    std::printf("labels: %zu B against a %zu B bound; %.1f%% of entries in "
                "the top 2^16 ranks\n",
                hl.LabelBytes(), space_bound, 100.0 * high_share);
    if (largest && hl.LabelBytes() > space_bound) space_gate_failed = true;
    metrics.Add("hl_label_bytes", label_bytes, {{"dataset", spec.name}});
    metrics.Add("hl_ch_index_bytes", ch_bytes, {{"dataset", spec.name}});
    metrics.Add("hl_space_ratio", label_bytes / ch_bytes,
                {{"dataset", spec.name}});
    metrics.Add("hl_avg_label_entries", hl.AvgLabelEntries(),
                {{"dataset", spec.name}});
    metrics.Add("hl_high_tier_share", high_share, {{"dataset", spec.name}});
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
  if (space_gate_failed) {
    std::fprintf(stderr,
                 "FAIL: the largest dataset's labels keep more bytes than "
                 "6 per entry, the references and block slack\n");
  }
  return gate_failed || build_gate_failed || space_gate_failed ||
                 hierarchy_gate_failed
             ? 1
             : 0;
}
