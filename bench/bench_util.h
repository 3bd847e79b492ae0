#ifndef ROADNET_BENCH_BENCH_UTIL_H_
#define ROADNET_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace roadnet {
namespace bench {

// Set ROADNET_BENCH_FAST=1 to shrink datasets and query counts for smoke
// runs; the default configuration regenerates the full figures.
inline bool FastMode() {
  const char* v = std::getenv("ROADNET_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

// The command line of the benches that write a BENCH_*.json file,
// `[--quick] [--out FILE.json]`: --quick (or ROADNET_BENCH_FAST=1) sets
// `*quick`, --out replaces `*out`. Prints the usage line and returns false
// on any other argument.
inline bool ParseQuickOut(int argc, char** argv, bool* quick,
                          std::string* out) {
  *quick = FastMode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      *quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      *out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE.json]\n",
                   argv[0]);
      return false;
    }
  }
  return true;
}

// Queries measured per set (the paper uses 10000; scaled for wall clock).
inline size_t QueriesPerSet() { return FastMode() ? 60 : 400; }

// Subsample cap for the slowest method (bidirectional Dijkstra on large
// inputs); its per-query cost is milliseconds, so a smaller sample still
// gives a stable average.
inline size_t SlowMethodQueryCap() { return FastMode() ? 10 : 50; }

// Upper bounds on dataset size per technique, reflecting each method's
// preprocessing feasibility at bench wall-clock budget (SILC/PCPD bounds
// mirror the paper's 24 GB memory cutoff at our scale; the TNR bound is a
// wall-clock analogue, see EXPERIMENTS.md).
inline uint32_t MaxVerticesForAllPairs() { return FastMode() ? 2500 : 5000; }
inline uint32_t MaxVerticesForTnr() { return FastMode() ? 5000 : 40000; }

// Wall-clock caps of the Appendix A techniques: all of them, Arc Flags'
// per-region boundary searches, and RE's exact reaches (all-pairs work).
inline uint32_t MaxVerticesForAppendixA() { return 40000; }
inline uint32_t MaxVerticesForArcFlags() { return 22000; }
inline uint32_t MaxVerticesForReach() { return 5000; }

// Fixed TNR grid resolution for every figure bench: the analogue of the
// paper's fixed 128x128 grid. Our datasets are ~1:100 the paper's vertex
// counts (~1:10 linear), and at 32x32 the vertices-per-cell regime and the
// locality-filter engagement point (between Q6 and Q7 against the fixed
// 1024-analogue query grid) match the paper's setup. The granularity
// sweep itself (Figure 13) varies around this value.
inline uint32_t PaperGridResolution() { return 32; }

// Datasets to sweep (all ten, or the four smallest in fast mode).
inline std::vector<DatasetSpec> BenchDatasets() {
  const auto& all = PaperDatasets();
  if (FastMode()) return {all.begin(), all.begin() + 4};
  return all;
}

// ---- Table printing helpers (paper-style rows) ----

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// Prints a latency cell: "n/a" when the method was not applicable
// (negative marker), otherwise microseconds.
inline void PrintMicrosCell(double micros) {
  if (micros < 0) {
    std::printf(" %10s", "n/a");
  } else {
    std::printf(" %10.2f", micros);
  }
}

}  // namespace bench
}  // namespace roadnet

#endif  // ROADNET_BENCH_BENCH_UTIL_H_
