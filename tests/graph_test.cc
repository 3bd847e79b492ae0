#include "graph/graph.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "graph/connectivity.h"
#include "graph/dimacs.h"
#include "graph/generator.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(GraphBuilder, BuildsCsrWithSortedNeighbors) {
  GraphBuilder b(4);
  b.AddEdge(0, 2, 5);
  b.AddEdge(0, 1, 3);
  b.AddEdge(2, 3, 7);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  auto n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0].to, 1u);
  EXPECT_EQ(n0[1].to, 2u);
  EXPECT_EQ(g.Degree(3), 1u);
}

TEST(GraphBuilder, CollapsesParallelEdgesToMinWeight) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 9);
  b.AddEdge(1, 0, 4);
  b.AddEdge(0, 1, 6);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.EdgeWeight(0, 1), std::optional<Weight>(4));
  EXPECT_EQ(g.EdgeWeight(1, 0), std::optional<Weight>(4));
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.AddEdge(0, 0, 1);
  b.AddEdge(0, 1, 2);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(Graph, EdgeWeightAbsent) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 2);
  Graph g = std::move(b).Build();
  EXPECT_FALSE(g.EdgeWeight(0, 2).has_value());
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(Graph, BoundsCoverAllCoords) {
  Graph g = TestNetwork(300, 3);
  const Rect& b = g.Bounds();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_TRUE(b.Contains(g.Coord(v)));
  }
}

TEST(Connectivity, DetectsComponents) {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 1);
  b.AddEdge(2, 3, 1);
  Graph g = std::move(b).Build();
  EXPECT_FALSE(IsConnected(g));
  uint32_t count = 0;
  auto labels = ConnectedComponents(g, &count);
  EXPECT_EQ(count, 3u);  // {0,1}, {2,3}, {4}
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(Connectivity, LargestComponentExtraction) {
  GraphBuilder b(6);
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 1);
  b.AddEdge(3, 4, 1);
  Graph g = std::move(b).Build();
  std::vector<VertexId> mapping;
  Graph largest = LargestComponent(g, &mapping);
  EXPECT_EQ(largest.NumVertices(), 3u);
  EXPECT_EQ(largest.NumEdges(), 2u);
  EXPECT_TRUE(IsConnected(largest));
  EXPECT_NE(mapping[0], kInvalidVertex);
  EXPECT_EQ(mapping[3], kInvalidVertex);
  EXPECT_EQ(mapping[5], kInvalidVertex);
}

TEST(Generator, ProducesConnectedBoundedDegreeNetwork) {
  Graph g = TestNetwork(1000, 42);
  EXPECT_GT(g.NumVertices(), 800u);
  EXPECT_TRUE(IsConnected(g));
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_LE(g.Degree(v), 10u);  // degree-bounded (Section 2)
  }
}

TEST(Generator, DeterministicForSameSeed) {
  Graph a = TestNetwork(500, 7);
  Graph b = TestNetwork(500, 7);
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    EXPECT_TRUE(a.Coord(v) == b.Coord(v));
    auto na = a.Neighbors(v);
    auto nb = b.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) EXPECT_TRUE(na[i] == nb[i]);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  Graph a = TestNetwork(500, 7);
  Graph b = TestNetwork(500, 8);
  bool differs = a.NumVertices() != b.NumVertices() ||
                 a.NumEdges() != b.NumEdges();
  if (!differs) {
    for (VertexId v = 0; v < a.NumVertices() && !differs; ++v) {
      differs = !(a.Coord(v) == b.Coord(v));
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Generator, HighwaysAreFasterThanLocalRoads) {
  // Edge weight per unit of Euclidean length should be visibly smaller on
  // highway rows/columns. Proxy check: the minimum weight/length ratio
  // over all edges is well below the maximum.
  Graph g = TestNetwork(900, 11);
  double min_ratio = 1e9, max_ratio = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Arc& a : g.Neighbors(v)) {
      const double len = std::sqrt(
          static_cast<double>(SquaredEuclidean(g.Coord(v), g.Coord(a.to))));
      if (len < 1) continue;
      const double r = a.weight / len;
      min_ratio = std::min(min_ratio, r);
      max_ratio = std::max(max_ratio, r);
    }
  }
  EXPECT_LT(min_ratio * 2, max_ratio);
}

TEST(Dimacs, RoundTripsGeneratedNetwork) {
  Graph g = TestNetwork(300, 5);
  std::stringstream gr, co;
  WriteDimacs(g, gr, co);
  std::string error;
  auto parsed = ReadDimacs(gr, co, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->NumVertices(), g.NumVertices());
  ASSERT_EQ(parsed->NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_TRUE(parsed->Coord(v) == g.Coord(v));
    auto na = g.Neighbors(v);
    auto nb = parsed->Neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) EXPECT_TRUE(na[i] == nb[i]);
  }
}

TEST(Dimacs, RejectsMalformedHeader) {
  std::stringstream gr("p xx 3 2\na 1 2 5\na 2 3 5\n");
  std::stringstream co("p aux sp co 3\nv 1 0 0\nv 2 1 1\nv 3 2 2\n");
  std::string error;
  EXPECT_FALSE(ReadDimacs(gr, co, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Dimacs, RejectsOutOfRangeVertex) {
  std::stringstream gr("p sp 3 1\na 1 9 5\n");
  std::stringstream co("p aux sp co 3\nv 1 0 0\nv 2 1 1\nv 3 2 2\n");
  std::string error;
  EXPECT_FALSE(ReadDimacs(gr, co, &error).has_value());
}

TEST(Dimacs, RejectsArcCountMismatch) {
  std::stringstream gr("p sp 3 5\na 1 2 5\n");
  std::stringstream co("p aux sp co 3\nv 1 0 0\nv 2 1 1\nv 3 2 2\n");
  std::string error;
  EXPECT_FALSE(ReadDimacs(gr, co, &error).has_value());
}

TEST(Dimacs, SkipsComments) {
  std::stringstream gr("c header comment\np sp 2 1\nc mid comment\na 1 2 7\n");
  std::stringstream co("c comment\np aux sp co 2\nv 1 0 0\nv 2 5 5\n");
  std::string error;
  auto g = ReadDimacs(gr, co, &error);
  ASSERT_TRUE(g.has_value()) << error;
  EXPECT_EQ(g->EdgeWeight(0, 1), std::optional<Weight>(7));
}

TEST(Dimacs, RejectsWeightBeyond32Bits) {
  std::stringstream gr("p sp 2 1\na 1 2 4294967296\n");
  std::stringstream co("p aux sp co 2\nv 1 0 0\nv 2 1 1\n");
  std::string error;
  EXPECT_FALSE(ReadDimacs(gr, co, &error).has_value());
  EXPECT_NE(error.find("weight"), std::string::npos) << error;
}

TEST(Dimacs, RejectsVertexCountBeyond32Bits) {
  // Truncated to 32 bits, the count would be 2 while id 4294967296 still
  // passed a range check against the untruncated count.
  std::stringstream gr("p sp 4294967298 1\na 1 4294967296 5\n");
  std::stringstream co("p aux sp co 4294967298\nv 1 0 0\nv 2 1 1\n");
  std::string error;
  EXPECT_FALSE(ReadDimacs(gr, co, &error).has_value());
  EXPECT_NE(error.find("vertex count"), std::string::npos) << error;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ROADNET_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ROADNET_SHADOW_MEMORY 1
#endif
#endif

// Caps the address space so an allocation sized from a header alone
// fails at once instead of paging in gigabytes. Sanitizer runtimes
// reserve terabytes of shadow memory up front, so under them the cap
// would fail every allocation and is left off.
void CapAddressSpace() {
#ifndef ROADNET_SHADOW_MEMORY
  const rlimit cap{1ull << 30, 1ull << 30};
  setrlimit(RLIMIT_AS, &cap);
#endif
}

// Four billion vertices announced, none delivered: sizing anything from
// the header would ask for tens of gigabytes.
bool AcceptsHeaderOnlyInput() {
  std::stringstream gr("p sp 4000000000 0\n");
  std::stringstream co("p aux sp co 4000000000\n");
  std::string error;
  return ReadDimacs(gr, co, &error).has_value();
}

TEST(Dimacs, HeaderAloneAllocatesNothing) {
  EXPECT_EXIT(
      {
        CapAddressSpace();
        std::exit(AcceptsHeaderOnlyInput() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Dimacs, RejectsRepeatedVertexId) {
  std::stringstream gr("p sp 3 1\na 1 2 5\n");
  std::stringstream co("p aux sp co 3\nv 1 0 0\nv 2 1 1\nv 1 2 2\n");
  std::string error;
  EXPECT_FALSE(ReadDimacs(gr, co, &error).has_value());
  EXPECT_NE(error.find("repeated"), std::string::npos) << error;
}

TEST(Dimacs, RejectsCoordinateBeyond32Bits) {
  std::stringstream gr("p sp 2 1\na 1 2 5\n");
  std::stringstream co("p aux sp co 2\nv 1 4294967296 0\nv 2 1 1\n");
  std::string error;
  EXPECT_FALSE(ReadDimacs(gr, co, &error).has_value());
}

}  // namespace
}  // namespace roadnet
