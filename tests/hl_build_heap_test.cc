// Live heap bytes during one HlIndex build, and kept after it, counted by
// the replaced global operator new and delete of
// tests/counting_allocator.h.

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "ch/ch_index.h"
#include "hl/hl_index.h"
#include "tests/counting_allocator.h"
#include "workload/datasets.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// CA′, the served dataset, and its hierarchy, built once for both tests.
struct CaPrime {
  Graph graph;
  ChIndex ch;

  CaPrime() : graph(Build()), ch(graph) {}

  static Graph Build() {
    for (const DatasetSpec& s : PaperDatasets()) {
      if (s.name == "CA'") return BuildDataset(s);
    }
    ADD_FAILURE() << "no CA' dataset";
    return Graph();
  }
};

const CaPrime& GetCaPrime() {
  static const CaPrime* const ca = new CaPrime();
  return *ca;
}

// CA′ has fewer than 2^16 vertices, so every hub is in the high tier: a
// u16 hub offset and a u32 distance.
constexpr size_t kEntryBytes = sizeof(uint16_t) + sizeof(uint32_t);
constexpr size_t kBlockBytes = HlIndex::kBlockSlots * sizeof(uint16_t);

// The build appends each label to fixed-size blocks once and keeps a
// reference per vertex, so on CA′ its peak heap is at most:
//   - the label entries, 6 bytes each;
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
  const CaPrime& ca = GetCaPrime();
  const size_t n = ca.graph.NumVertices();

  const size_t before = ResetPeakHeapBytes();
  const HlIndex hl(ca.graph, ca.ch);
  const size_t peak = PeakHeapBytes() - before;

  const size_t entries = hl.NumLabelEntries() * kEntryBytes;
  const size_t per_vertex = n * 28;
  EXPECT_EQ(hl.NumLabelEntries(), 564527u);
  EXPECT_LE(peak, entries + kBlockBytes + per_vertex)
      << "entries " << entries << " B, block " << kBlockBytes
      << " B, per-vertex " << per_vertex << " B";
  // What the index keeps is the blocks and the references.
  EXPECT_LE(hl.LabelBytes(), peak);
  std::printf("HL build on CA': peak heap %zu B; entries %zu B, block %zu B, "
              "per-vertex arrays %zu B, bound %zu B; LabelBytes %zu B\n",
              peak, entries, kBlockBytes, per_vertex,
              entries + kBlockBytes + per_vertex, hl.LabelBytes());
}

// What the built index keeps on CA′: 6 bytes per entry, an 8-byte
// reference per vertex, and one block of slack for the room blocks leave
// empty and the block table. Entries of 8 bytes, the layout before the
// 16-bit tier, keep 1.13 MB more and fail it.
TEST(HlBuildHeap, KeptLabelsAreSixBytesPerEntryPlusReferences) {
  const CaPrime& ca = GetCaPrime();
  const size_t n = ca.graph.NumVertices();

  const size_t before = LiveHeapBytes();
  const HlIndex hl(ca.graph, ca.ch);
  const size_t kept = LiveHeapBytes() - before;

  const size_t bound =
      hl.NumLabelEntries() * kEntryBytes + n * 8 + kBlockBytes;
  EXPECT_LE(kept, bound);
  EXPECT_EQ(kept, hl.LabelBytes());
  std::printf("HL on CA': keeps %zu B, bound %zu B\n", kept, bound);
}

}  // namespace
}  // namespace roadnet
