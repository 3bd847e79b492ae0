// Live heap bytes of CH query contexts and CH builds, counted by the
// replaced global operator new and delete of tests/counting_allocator.h.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "dijkstra/dijkstra.h"
#include "graph/graph.h"
#include "routing/path.h"
#include "tests/counting_allocator.h"
#include "workload/datasets.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

Graph BuildCa() {
  for (const DatasetSpec& s : PaperDatasets()) {
    if (s.name == "CA'") return BuildDataset(s);
  }
  ADD_FAILURE() << "no CA' dataset";
  return std::move(GraphBuilder(0)).Build();
}

// Heap bytes a fresh context of `ch` keeps.
size_t ContextBytes(const ChIndex& ch) {
  const size_t before = LiveHeapBytes();
  const std::unique_ptr<QueryContext> ctx = ch.NewContext();
  return LiveHeapBytes() - before;
}

// Every CA′ upward path is far below 2^32, so each side of a context
// keeps a 4-byte distance and a 4-byte parent arc per vertex: 16 bytes
// per vertex. The rest is fixed: the touched lists reserved at 4,096
// ranks per side and the context object. With 8-byte distances a
// context took 24 bytes per vertex (490,168 B on CA′).
TEST(ChBuildHeap, ContextHoldsSixteenBytesPerVertex) {
  const Graph g = BuildCa();
  const ChIndex ch(g);
  const size_t n = g.NumVertices();
  const size_t bytes = ContextBytes(ch);
  const size_t bound = 16 * n + 64 * 1024;
  EXPECT_LE(bytes, bound);
  std::printf("CH context on CA': %zu B, bound %zu B\n", bytes, bound);
}

// The contraction's peak holds, with m original edges and n vertices:
//   - the edge list, reserved at 2m 16-byte records (32 B per edge):
//     the m edges and as many shortcuts, more than CA′ adds;
//   - the overlay arena, reserved at 3m 8-byte arcs and grown by half
//     at most once on CA′ (36 B per edge);
//   - at most 64 B per vertex: the overlay blocks (12), the queue's
//     positions (8) and entries (16, in a vector grown by doubling, so
//     up to 32), the ranks and deleted-neighbour counts (8) and one
//     compaction's vertex list (4).
// A list grown by doubling instead, from 65,536 to 131,072 records
// while the old copy is live, took the build to 5,111,412 B.
TEST(ChBuildHeap, BuildPeakHoldsTheEdgeListWithoutCopyingIt) {
  const Graph g = BuildCa();
  const size_t n = g.NumVertices();
  const size_t m = g.NumEdges();
  const size_t before = ResetPeakHeapBytes();
  const ChIndex ch(g);
  const size_t peak = PeakHeapBytes() - before;
  const size_t bound = (32 + 36) * m + 64 * n;
  EXPECT_LE(ch.NumShortcuts(), m) << "the edge list outgrew its reserve";
  EXPECT_LE(peak, bound);
  std::printf("CH build on CA': peak heap %zu B, bound %zu B; IndexBytes "
              "%zu B\n",
              peak, bound, ch.IndexBytes());
}

// Weighing a vertex counts its neighbour pairs without a witness and
// stores none of them, so the centre of a star of 8,193 leaves, whose
// 33.5 M pairs all lack one, costs O(degree) memory: its witness
// searches hold every leaf once. Storing each pair as a 16-byte planned
// shortcut to count it took the process to 1.05 GB.
TEST(ChBuildHeap, StarBuildStaysLinearInItsDegree) {
  constexpr uint32_t kLeaves = 8193;
  GraphBuilder b(kLeaves + 1);
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) b.AddEdge(0, leaf, 1);
  const Graph g = std::move(b).Build();
  const size_t n = g.NumVertices();
  const size_t before = ResetPeakHeapBytes();
  const ChIndex ch(g);
  const size_t peak = PeakHeapBytes() - before;
  const size_t bound = 256 * n;
  EXPECT_EQ(ch.NumShortcuts(), 0u);
  EXPECT_LE(peak, bound);
  std::printf("CH build on a star of %u leaves: peak heap %zu B, bound "
              "%zu B\n",
              kLeaves, peak, bound);
}

// The path p0 - p1 - p2 - p3 - p4 with weights 2^31, 1, `last` and
// 2^31, contracted in the order p0, p2, p4, p1, p3: contracting p2 joins
// p1 and p3 by a shortcut of 1 + last. The longest upward path, p0 → p1
// → p3 over the shortcut, is 2^31 + 1 + last. It is also dist(p0, p3),
// so the forward search from p0 stores that very distance. The searches
// between p0 and p4 meet at p3 from both sides, at a sum past 2^32.
struct Chain {
  Graph graph;
  ContractionResult hierarchy;
};

Chain ChainOf(Weight last) {
  constexpr Weight kHalf = Weight{1} << 31;
  GraphBuilder b(5);
  b.AddEdge(0, 1, kHalf);
  b.AddEdge(1, 2, 1);
  b.AddEdge(2, 3, last);
  b.AddEdge(3, 4, kHalf);
  ContractionResult hierarchy;
  hierarchy.rank = {0, 3, 1, 4, 2};
  hierarchy.edges = {TaggedEdge{0, 1, kHalf, kInvalidVertex},
                     TaggedEdge{1, 2, 1, kInvalidVertex},
                     TaggedEdge{2, 3, last, kInvalidVertex},
                     TaggedEdge{3, 4, kHalf, kInvalidVertex},
                     TaggedEdge{1, 3, 1 + last, 2}};
  hierarchy.num_shortcuts = 1;
  return Chain{std::move(b).Build(), std::move(hierarchy)};
}

std::unique_ptr<ChIndex> RoundTrip(const Graph& g, const ChIndex& ch) {
  std::stringstream file;
  ch.Serialize(file);
  std::string error;
  std::unique_ptr<ChIndex> restored = ChIndex::Deserialize(g, file, &error);
  EXPECT_NE(restored, nullptr) << error;
  return restored;
}

void ExpectAnswersAsDijkstra(const Graph& g, const ChIndex& ch) {
  const auto ctx = ch.NewContext();
  Dijkstra reference(g);
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    reference.RunAll(s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      const Distance truth = reference.DistanceTo(t);
      EXPECT_EQ(ch.DistanceQuery(ctx.get(), s, t), truth) << s << "-" << t;
      const Path path = ch.PathQuery(ctx.get(), s, t);
      EXPECT_EQ(ctx->path_distance, truth) << s << "-" << t;
      EXPECT_TRUE(IsValidPath(g, path)) << s << "-" << t;
      EXPECT_EQ(PathWeight(g, path), truth) << s << "-" << t;
    }
  }
}

// UINT32_MAX is the 32-bit "unreached", so a hierarchy gets 32-bit search
// state only if its longest upward path is at most 2^32 − 2. The two
// chains differ in that path alone (2^32 − 2 and 2^32 − 1), so their
// contexts differ only in each side's distance array, 4 bytes a vertex
// narrower in the first. A restored index chooses as the built one did.
TEST(ChSearchWidth, ThirtyTwoBitsOnlyBelowTheUnreachedSentinel) {
  const Chain narrow = ChainOf((Weight{1} << 31) - 3);
  const Chain wide = ChainOf((Weight{1} << 31) - 2);
  const ChIndex narrow_ch(narrow.graph, narrow.hierarchy, ChConfig{});
  const ChIndex wide_ch(wide.graph, wide.hierarchy, ChConfig{});
  const size_t n = narrow.graph.NumVertices();
  EXPECT_EQ(ContextBytes(wide_ch) - ContextBytes(narrow_ch),
            2 * n * (sizeof(Distance) - sizeof(uint32_t)));
  EXPECT_EQ(ContextBytes(*RoundTrip(narrow.graph, narrow_ch)),
            ContextBytes(narrow_ch));
  EXPECT_EQ(ContextBytes(*RoundTrip(wide.graph, wide_ch)),
            ContextBytes(wide_ch));
}

TEST(ChSearchWidth, BothWidthsAnswerAsDijkstraAfterARoundTrip) {
  for (const Weight last : {(Weight{1} << 31) - 3, (Weight{1} << 31) - 2}) {
    const Chain chain = ChainOf(last);
    SCOPED_TRACE(::testing::Message() << "last weight " << last);
    const ChIndex ch(chain.graph, chain.hierarchy, ChConfig{});
    const auto ctx = ch.NewContext();
    EXPECT_EQ(ch.DistanceQuery(ctx.get(), 0, 3),
              (Distance{1} << 31) + 1 + last);
    EXPECT_EQ(ch.DistanceQuery(ctx.get(), 0, 4),
              (Distance{1} << 32) + 1 + last);
    ExpectAnswersAsDijkstra(chain.graph, ch);
    ExpectAnswersAsDijkstra(chain.graph, *RoundTrip(chain.graph, ch));
  }
}

}  // namespace
}  // namespace roadnet
