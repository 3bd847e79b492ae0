#include "workload/datasets.h"

namespace roadnet {

const std::vector<DatasetSpec>& PaperDatasets() {
  // Vertex counts are Table 1 divided by ~100. The seed varies per dataset
  // so the networks are not nested copies of one another.
  static const std::vector<DatasetSpec>* const kDatasets =
      new std::vector<DatasetSpec>{
          {"DE'", "DE (Delaware)", 500, 101},
          {"NH'", "NH (New Hampshire)", 1150, 102},
          {"ME'", "ME (Maine)", 1900, 103},
          {"CO'", "CO (Colorado)", 4400, 104},
          {"FL'", "FL (Florida)", 10700, 105},
          {"CA'", "CA (California and Nevada)", 18900, 106},
          {"E-US'", "E-US (Eastern US)", 36000, 107},
          {"W-US'", "W-US (Western US)", 62600, 108},
          {"C-US'", "C-US (Central US)", 140800, 109},
          {"US'", "US (United States)", 239500, 110},
      };
  return *kDatasets;
}

Graph BuildDataset(const DatasetSpec& spec) {
  GeneratorConfig config;
  config.target_vertices = spec.target_vertices;
  config.seed = spec.seed;
  return GenerateRoadNetwork(config);
}

}  // namespace roadnet
