// Live heap bytes during one HlIndex build. This binary replaces the
// global operator new and delete, single and array forms, so it counts
// every byte the build allocates through them and keeps the high-water
// mark; it is a binary of its own so no other test runs on the counting
// allocator.

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "ch/ch_index.h"
#include "hl/hl_index.h"
#include "workload/datasets.h"
#include "gtest/gtest.h"

namespace {

std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_peak_bytes{0};

// Each block carries its size in a header, so delete knows what it frees.
constexpr size_t kHeader = alignof(std::max_align_t);

void* Allocate(size_t size) noexcept {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) return nullptr;
  *static_cast<size_t*>(block) = size;
  const size_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void* AllocateOrThrow(size_t size) {
  void* p = Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*reinterpret_cast<size_t*>(block),
                         std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

void* operator new(size_t size) { return AllocateOrThrow(size); }
void* operator new[](size_t size) { return AllocateOrThrow(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}

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

  const size_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  const HlIndex hl(g, ch);
  const size_t peak = g_peak_bytes.load() - before;

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
