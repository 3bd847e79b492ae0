// The heap each built index keeps, counted by the replaced global
// operator new and delete of tests/counting_allocator.h, against the
// bytes its IndexBytes() declares. Fig. 6 and every space claim read
// IndexBytes(), so it has to count what the index really holds.

#include <cstddef>
#include <cstdio>
#include <string>

#include "ch/ch_index.h"
#include "hl/hl_index.h"
#include "pcpd/approx_oracle.h"
#include "pcpd/pcpd_index.h"
#include "tests/counting_allocator.h"
#include "workload/datasets.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// Checks that `declared` is within 1% of the heap `kept`.
void ExpectDeclaresWhatItKeeps(const std::string& what, size_t kept,
                               size_t declared) {
  const double ratio =
      static_cast<double>(kept) / static_cast<double>(declared);
  std::printf("%s: keeps %zu B, declares %zu B, ratio %.4f\n", what.c_str(),
              kept, declared, ratio);
  EXPECT_NEAR(ratio, 1.0, 0.01) << what;
}

// PCPD and the epsilon-oracle on DE' and NH'. Both store their block
// pairs in a std::unordered_map; their IndexBytes() count a node as key,
// value and next pointer.
TEST(IndexSpace, PcpdAndOracleDeclareTheHeapTheyKeep) {
  for (size_t dataset : {0, 1}) {
    const DatasetSpec& spec = PaperDatasets()[dataset];
    const Graph g = BuildDataset(spec);
    {
      const size_t before = LiveHeapBytes();
      const PcpdIndex pcpd(g);
      ExpectDeclaresWhatItKeeps(spec.name + " PCPD", LiveHeapBytes() - before,
                                pcpd.IndexBytes());
    }
    for (double epsilon : {0.01, 0.1, 0.5}) {
      const size_t before = LiveHeapBytes();
      const ApproxDistanceOracle oracle(g, epsilon);
      char what[64];
      std::snprintf(what, sizeof(what), "%s oracle eps %g", spec.name.c_str(),
                    epsilon);
      ExpectDeclaresWhatItKeeps(what, LiveHeapBytes() - before,
                                oracle.IndexBytes());
    }
  }
}

// Hub labels on DE' and NH' over their hierarchies: LabelBytes() counts
// the label blocks at their capacity, the block table and the per-vertex
// references, which is all the labels keep.
TEST(IndexSpace, HlDeclaresTheHeapItKeeps) {
  for (size_t dataset : {0, 1}) {
    const DatasetSpec& spec = PaperDatasets()[dataset];
    const Graph g = BuildDataset(spec);
    const ChIndex ch(g);
    const size_t before = LiveHeapBytes();
    const HlIndex hl(g, ch);
    ExpectDeclaresWhatItKeeps(spec.name + " HL", LiveHeapBytes() - before,
                              hl.LabelBytes());
  }
}

}  // namespace
}  // namespace roadnet
