#include "core/experiment.h"
#include "core/guidelines.h"

#include <chrono>
#include <memory>
#include <thread>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "tests/test_util.h"
#include "workload/query_gen.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(Experiment, MeasuresBuildAndQueries) {
  Graph g = TestNetwork(500, 3);
  BuildResult build = Experiment::MeasureBuild(
      "CH", [&] { return std::make_unique<ChIndex>(g); });
  ASSERT_NE(build.index, nullptr);
  EXPECT_EQ(build.method, "CH");
  EXPECT_GT(build.preprocess_seconds, 0);
  EXPECT_GT(build.index_bytes, 0u);

  QuerySet set;
  set.name = "test";
  set.pairs = RandomPairs(g, 50, 5);
  QueryResult q = Experiment::MeasureQueries(build.index.get(), set);
  EXPECT_EQ(q.method, "CH");
  EXPECT_EQ(q.num_queries, 50u);
  EXPECT_GT(q.avg_distance_micros, 0);
  EXPECT_GT(q.avg_path_micros, 0);
}

// An index whose contexts take 20 ms to make and whose queries return at
// once. Timing the context with the queries would read 2,000 us/query over
// ten queries.
class SlowContextIndex : public PathIndex {
 public:
  std::string Name() const override { return "SlowContext"; }
  std::unique_ptr<QueryContext> NewContext() const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::make_unique<QueryContext>();
  }
  Distance DistanceQuery(QueryContext*, VertexId s,
                         VertexId t) const override {
    return s + t;
  }
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override {
    ctx->path_distance = s + t;
    return {s, t};
  }
  size_t IndexBytes() const override { return 0; }
};

TEST(Experiment, TimesQueriesNotContextCreation) {
  QuerySet set;
  set.name = "ten";
  for (VertexId i = 0; i < 10; ++i) set.pairs.emplace_back(i, i + 1);
  // Fresh instances, so neither measurement finds a context already made.
  SlowContextIndex for_distances;
  EXPECT_LT(Experiment::MeasureDistanceQueries(&for_distances, set), 1000.0);
  SlowContextIndex for_paths;
  EXPECT_LT(Experiment::MeasurePathQueries(&for_paths, set), 1000.0);
}

TEST(Experiment, NullFactoryMeansNotApplicable) {
  BuildResult build = Experiment::MeasureBuild(
      "SILC", [] { return std::unique_ptr<PathIndex>(); });
  EXPECT_EQ(build.index, nullptr);
  EXPECT_EQ(build.index_bytes, 0u);
}

TEST(Experiment, MismatchCounting) {
  Graph g = TestNetwork(400, 7);
  ChIndex ch(g);
  BidirectionalDijkstra bidi(g);
  QuerySet set;
  set.name = "agree";
  set.pairs = RandomPairs(g, 80, 9);
  EXPECT_EQ(Experiment::CountDistanceMismatches(&ch, &bidi, set), 0u);
}

TEST(Guidelines, DefaultIsCh) {
  WorkloadProfile p;
  p.num_vertices = 20000000;
  p.space_constrained = true;
  EXPECT_EQ(RecommendMethod(p).method, "CH");
}

TEST(Guidelines, PathHeavySmallUnconstrainedIsSilc) {
  WorkloadProfile p;
  p.num_vertices = 200000;
  p.space_constrained = false;
  p.path_query_fraction = 0.9;
  EXPECT_EQ(RecommendMethod(p).method, "SILC");
}

TEST(Guidelines, DistanceHeavyLongRangeIsTnr) {
  WorkloadProfile p;
  p.num_vertices = 20000000;
  p.space_constrained = false;
  p.path_query_fraction = 0.1;
  p.long_range_fraction = 0.8;
  EXPECT_EQ(RecommendMethod(p).method, "TNR+CH");
}

TEST(Guidelines, SilcInfeasibleOnHugeNetworks) {
  // Beyond the all-pairs budget the recommendation degrades to TNR+CH or
  // CH, never SILC (the paper's first summary finding).
  WorkloadProfile p;
  p.num_vertices = 20000000;
  p.space_constrained = false;
  p.path_query_fraction = 0.9;
  p.long_range_fraction = 0.2;
  EXPECT_NE(RecommendMethod(p).method, "SILC");
}

TEST(Guidelines, NeverRecommendsPcpd) {
  for (uint32_t n : {1000u, 100000u, 10000000u}) {
    for (bool space : {true, false}) {
      for (double pf : {0.0, 0.5, 1.0}) {
        WorkloadProfile p;
        p.num_vertices = n;
        p.space_constrained = space;
        p.path_query_fraction = pf;
        EXPECT_NE(RecommendMethod(p).method, "PCPD");
      }
    }
  }
}

}  // namespace
}  // namespace roadnet
