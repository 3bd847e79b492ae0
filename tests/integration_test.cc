// Cross-technique integration tests: the paper's central premise is that
// all five techniques answer the same two query types exactly; here every
// index is built over the same networks and checked for full agreement on
// generated workloads, mirroring the experimental pipeline end to end.

#include <memory>
#include <sstream>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "graph/dimacs.h"
#include "pcpd/pcpd_index.h"
#include "silc/silc_index.h"
#include "tests/test_util.h"
#include "tnr/tnr_index.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

class AllIndexesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllIndexesTest, AllFiveTechniquesAgreeOnGeneratedWorkloads) {
  GeneratorConfig gc;
  gc.target_vertices = 600;
  gc.seed = GetParam();
  gc.highway_period = 8;
  Graph g = GenerateRoadNetwork(gc);

  BidirectionalDijkstra bidi(g);
  ChIndex ch(g);
  TnrConfig tnr_config;
  tnr_config.grid_resolution = 12;
  TnrIndex tnr(g, &ch, tnr_config);
  SilcIndex silc(g);
  PcpdIndex pcpd(g);
  std::vector<const PathIndex*> indexes = {&bidi, &ch, &tnr, &silc, &pcpd};
  std::vector<std::unique_ptr<QueryContext>> contexts;
  for (const PathIndex* index : indexes) {
    contexts.push_back(index->NewContext());
  }

  const auto sets = GenerateLInfQuerySets(g, 15, GetParam() + 7);
  Dijkstra truth(g);
  for (const auto& set : sets) {
    for (auto [s, t] : set.pairs) {
      const Distance expected = truth.Run(s, t);
      for (size_t i = 0; i < indexes.size(); ++i) {
        const PathIndex* index = indexes[i];
        QueryContext* ctx = contexts[i].get();
        EXPECT_EQ(index->DistanceQuery(ctx, s, t), expected)
            << index->Name() << " on " << set.name << " s=" << s
            << " t=" << t;
        Path p = index->PathQuery(ctx, s, t);
        ASSERT_FALSE(p.empty()) << index->Name();
        EXPECT_EQ(p.front(), s) << index->Name();
        EXPECT_EQ(p.back(), t) << index->Name();
        EXPECT_TRUE(IsValidPath(g, p)) << index->Name();
        EXPECT_EQ(PathWeight(g, p), expected)
            << index->Name() << " on " << set.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllIndexesTest, ::testing::Values(11, 22, 33));

TEST(Integration, SpaceOrderingMatchesFigure6) {
  // Figure 6(a): CH has the smallest index; TNR sits between CH and the
  // all-pairs techniques; SILC and PCPD are the largest by far.
  Graph g = BuildDataset(PaperDatasets()[1]);  // NH' (~1.1k vertices)
  ChIndex ch(g);
  TnrConfig tc;
  tc.grid_resolution = 16;
  TnrIndex tnr(g, &ch, tc);
  SilcIndex silc(g);
  PcpdIndex pcpd(g);
  EXPECT_LT(ch.IndexBytes(), tnr.IndexBytes() + ch.IndexBytes());
  EXPECT_LT(ch.IndexBytes(), silc.IndexBytes());
  EXPECT_LT(ch.IndexBytes(), pcpd.IndexBytes());
}

TEST(Integration, DimacsRoundTripPreservesQueryAnswers) {
  // Export a network to the DIMACS challenge format, re-import it, and
  // verify CH gives identical answers: the I/O path a user with real
  // DIMACS data exercises.
  Graph g = TestNetwork(400, 3);
  std::stringstream gr, co;
  WriteDimacs(g, gr, co);
  std::string error;
  auto reparsed = ReadDimacs(gr, co, &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  ChIndex ch1(g);
  ChIndex ch2(*reparsed);
  const auto ctx1 = ch1.NewContext();
  const auto ctx2 = ch2.NewContext();
  for (auto [s, t] : RandomPairs(g, 100, 9)) {
    EXPECT_EQ(ch1.DistanceQuery(ctx1.get(), s, t),
              ch2.DistanceQuery(ctx2.get(), s, t));
  }
}

}  // namespace
}  // namespace roadnet
