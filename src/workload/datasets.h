#ifndef ROADNET_WORKLOAD_DATASETS_H_
#define ROADNET_WORKLOAD_DATASETS_H_

#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/graph.h"

namespace roadnet {

// One synthetic stand-in for a Table 1 dataset. Sizes mirror the paper's
// ten DIMACS road networks at roughly 1:100 scale (see DESIGN.md for the
// substitution rationale); names carry a prime to signal the analogue.
struct DatasetSpec {
  std::string name;         // e.g. "DE'"
  std::string paper_name;   // e.g. "DE (Delaware)"
  uint32_t target_vertices;
  uint64_t seed;
};

// The ten dataset analogues, smallest to largest (DE' .. US').
const std::vector<DatasetSpec>& PaperDatasets();

// Builds the synthetic road network for a spec (deterministic).
Graph BuildDataset(const DatasetSpec& spec);

}  // namespace roadnet

#endif  // ROADNET_WORKLOAD_DATASETS_H_
