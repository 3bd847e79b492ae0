// Live heap bytes during one HlIndex build, counted by the replaced
// global operator new and delete of tests/counting_allocator.h.

#include <cstddef>
#include <cstdio>

#include "ch/ch_index.h"
#include "hl/hl_index.h"
#include "tests/counting_allocator.h"
#include "workload/datasets.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// The build appends each label to fixed-size blocks once and keeps a
// reference per vertex, so on CA′, the served dataset, its peak heap is
// at most:
//   - the label entries, 8 bytes each;
//   - one block, the room the last block may leave;
//   - the per-vertex arrays, at most 28 bytes per vertex: the label
//     references (8), the candidate distances (8), and the candidate
//     list (4) and label scratch (8), which hold at most one entry per
//     vertex.
// The candidate list and label scratch stay at a few hundred entries,
// far below n, which leaves room for the block table and the tails
// that full blocks leave empty. A build that grew one array by doubling
// and then copied it into an exact-size one would peak near three times
// the entries.
TEST(HlBuildHeap, PeakIsTheLabelsPlusOneBlockPlusPerVertexArrays) {
  const DatasetSpec* spec = nullptr;
  for (const DatasetSpec& s : PaperDatasets()) {
    if (s.name == "CA'") spec = &s;
  }
  ASSERT_NE(spec, nullptr);
  const Graph g = BuildDataset(*spec);
  const ChIndex ch(g);
  const size_t n = g.NumVertices();

  const size_t before = ResetPeakHeapBytes();
  const HlIndex hl(g, ch);
  const size_t peak = PeakHeapBytes() - before;

  const size_t entries = hl.NumLabelEntries() * sizeof(HlIndex::HubEntry);
  const size_t block = HlIndex::kBlockEntries * sizeof(HlIndex::HubEntry);
  const size_t per_vertex = n * 28;
  EXPECT_EQ(hl.NumLabelEntries(), 564527u);
  EXPECT_LE(peak, entries + block + per_vertex)
      << "entries " << entries << " B, block " << block << " B, per-vertex "
      << per_vertex << " B";
  // What the index keeps is the blocks and the references.
  EXPECT_LE(hl.LabelBytes(), peak);
  std::printf("HL build on CA': peak heap %zu B; entries %zu B, block %zu B, "
              "per-vertex arrays %zu B, bound %zu B; LabelBytes %zu B\n",
              peak, entries, block, per_vertex, entries + block + per_vertex,
              hl.LabelBytes());
}

}  // namespace
}  // namespace roadnet
