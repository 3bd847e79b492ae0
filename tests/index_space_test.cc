// The heap each built index keeps, counted by the replaced global
// operator new and delete of tests/counting_allocator.h, against the
// bytes its IndexBytes() declares. Fig. 6 and every space claim read
// IndexBytes(), so it has to count what the index really holds.

#include <cstddef>
#include <cstdio>
#include <string>

#include "alt/alt_index.h"
#include "arcflags/arc_flags.h"
#include "ch/ch_index.h"
#include "hiti/partition_overlay.h"
#include "hl/hl_index.h"
#include "pcpd/approx_oracle.h"
#include "pcpd/pcpd_index.h"
#include "reach/reach_index.h"
#include "silc/silc_index.h"
#include "tests/counting_allocator.h"
#include "tnr/tnr_index.h"
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

// Builds an Index from `args` and checks its IndexBytes() against the heap
// the build leaves live. The index itself lives on the stack, so that heap
// is exactly what it keeps.
template <typename Index, typename... Args>
void ExpectIndexDeclaresWhatItKeeps(const std::string& what,
                                    const Args&... args) {
  const size_t before = LiveHeapBytes();
  const Index index(args...);
  ExpectDeclaresWhatItKeeps(what, LiveHeapBytes() - before,
                            index.IndexBytes());
}

// PCPD and the epsilon-oracle on DE' and NH'. Both store their block
// pairs in a std::unordered_map; their IndexBytes() count a node as key,
// value and next pointer.
TEST(IndexSpace, PcpdAndOracleDeclareTheHeapTheyKeep) {
  for (size_t dataset : {0, 1}) {
    const DatasetSpec& spec = PaperDatasets()[dataset];
    const Graph g = BuildDataset(spec);
    ExpectIndexDeclaresWhatItKeeps<PcpdIndex>(spec.name + " PCPD", g);
    for (double epsilon : {0.01, 0.1, 0.5}) {
      char what[64];
      std::snprintf(what, sizeof(what), "%s oracle eps %g", spec.name.c_str(),
                    epsilon);
      ExpectIndexDeclaresWhatItKeeps<ApproxDistanceOracle>(what, g, epsilon);
    }
  }
}

// CH, and TNR plain and hybrid over it, on DE' and NH'. The CH a TNR
// falls back to is the caller's, built before the count starts, and
// TNR's IndexBytes() leaves it out.
TEST(IndexSpace, ChAndTnrDeclareTheHeapTheyKeep) {
  for (size_t dataset : {0, 1}) {
    const DatasetSpec& spec = PaperDatasets()[dataset];
    const Graph g = BuildDataset(spec);
    ExpectIndexDeclaresWhatItKeeps<ChIndex>(spec.name + " CH", g);
    const ChIndex ch(g);
    ExpectIndexDeclaresWhatItKeeps<TnrIndex>(spec.name + " TNR", g, &ch,
                                             TnrConfig{});
    ExpectIndexDeclaresWhatItKeeps<TnrIndex>(spec.name + " hybrid TNR", g,
                                             &ch, TnrConfig{.hybrid = true});
  }
}

// SILC and the Appendix A techniques on DE' and NH'.
TEST(IndexSpace, SilcAndAppendixAIndexesDeclareTheHeapTheyKeep) {
  for (size_t dataset : {0, 1}) {
    const DatasetSpec& spec = PaperDatasets()[dataset];
    const Graph g = BuildDataset(spec);
    ExpectIndexDeclaresWhatItKeeps<SilcIndex>(spec.name + " SILC", g);
    ExpectIndexDeclaresWhatItKeeps<ReachIndex>(spec.name + " RE", g);
    ExpectIndexDeclaresWhatItKeeps<AltIndex>(spec.name + " ALT", g);
    ExpectIndexDeclaresWhatItKeeps<ArcFlagsIndex>(spec.name + " Arc Flags", g);
    ExpectIndexDeclaresWhatItKeeps<PartitionOverlayIndex>(spec.name + " HiTi",
                                                          g);
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
