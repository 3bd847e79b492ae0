#include "core/experiment.h"
#include "core/guidelines.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "tests/test_util.h"
#include "util/timer.h"
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
  for (bool paths : {false, true}) {
    const CellResult cell =
        Experiment::MeasureCell({{build.index.get()}}, set, paths);
    ASSERT_EQ(cell.techniques.size(), 1u);
    const TechniqueTiming& t = cell.techniques[0];
    EXPECT_EQ(t.queries, 50u);
    EXPECT_GT(t.median_micros, 0);
    EXPECT_GE(t.iqr_micros, 0);
    EXPECT_GT(t.counters.vertices_settled, 0u);
    EXPECT_EQ(t.answers.size(), 50u);
    EXPECT_GT(cell.aa_ratio, 0);
    EXPECT_GE(cell.aa_iqr, 0);
  }
}

// An index that logs which of several instances ran each query, and
// answers s + t + offset. Each query busy-waits `query_micros`: by
// default a whole minimum sample, so every timed sample is one pass.
class LoggingIndex : public PathIndex {
 public:
  LoggingIndex(std::string name, int id, std::vector<int>* log,
               Distance offset = 0,
               double query_micros = Experiment::kMinSampleMicros)
      : name_(std::move(name)),
        id_(id),
        log_(log),
        offset_(offset),
        query_micros_(query_micros) {}
  std::string Name() const override { return name_; }
  std::unique_ptr<QueryContext> NewContext() const override {
    return std::make_unique<QueryContext>();
  }
  Distance DistanceQuery(QueryContext*, VertexId s,
                         VertexId t) const override {
    Log();
    return s + t + offset_;
  }
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override {
    Log();
    ctx->path_distance = s + t + offset_;
    return {s, t};
  }
  size_t IndexBytes() const override { return 0; }

 private:
  void Log() const {
    log_->push_back(id_);
    Timer timer;
    while (timer.ElapsedMicros() < query_micros_) {
    }
  }

  std::string name_;
  int id_;
  std::vector<int>* log_;
  Distance offset_;
  double query_micros_;
};

TEST(Experiment, CellRotatesOrderAndTimesTheControlTwicePerRound) {
  std::vector<int> log;
  LoggingIndex a("A", 0, &log), ch("CH", 1, &log), b("B", 2, &log, 7);
  QuerySet set;
  set.name = "one";
  set.pairs = {{3, 4}};  // one query per pass: the log is the pass order
  const CellResult cell =
      Experiment::MeasureCell({{&a}, {&ch}, {&b}}, set, false);
  EXPECT_EQ(cell.reference, 1u);  // CH, though not the first entry
  EXPECT_EQ(cell.techniques[2].answers, std::vector<Distance>{14});
  for (const TechniqueTiming& t : cell.techniques) EXPECT_EQ(t.repeats, 1u);

  // The untimed pass and the warm pass, entry by entry, then rounds of 4
  // samples.
  constexpr int kSlots = 4;
  ASSERT_EQ(log.size(), 6u + Experiment::kCellRounds * kSlots);
  EXPECT_EQ(std::vector<int>(log.begin(), log.begin() + 6),
            (std::vector<int>{0, 0, 1, 1, 2, 2}));
  std::set<int> positions[3];
  for (int round = 0; round < Experiment::kCellRounds; ++round) {
    const auto begin = log.begin() + 6 + round * kSlots;
    const std::vector<int> order(begin, begin + kSlots);
    EXPECT_EQ(std::count(order.begin(), order.end(), 1), 2)
        << "the control (CH) runs twice in round " << round;
    EXPECT_EQ(std::count(order.begin(), order.end(), 0), 1);
    EXPECT_EQ(std::count(order.begin(), order.end(), 2), 1);
    for (int pos = 0; pos < kSlots; ++pos) positions[order[pos]].insert(pos);
  }
  for (int id = 0; id < 3; ++id) {
    EXPECT_EQ(positions[id].size(), static_cast<size_t>(kSlots))
        << "technique " << id << " missed a position";
  }
}

TEST(Experiment, CellWithAnOddSlotCountBalancesPredecessors) {
  // Four entries and the control: five slots, so odd rounds run the
  // rotated order backwards and every slot follows every other.
  std::vector<int> log;
  LoggingIndex a("A", 0, &log), ch("CH", 1, &log), b("B", 2, &log),
      c("C", 3, &log);
  QuerySet set;
  set.name = "one";
  set.pairs = {{3, 4}};
  Experiment::MeasureCell({{&a}, {&ch}, {&b}, {&c}}, set, false);
  constexpr int kSlots = 5;
  ASSERT_EQ(log.size(), 8u + Experiment::kCellRounds * kSlots);
  std::set<std::pair<int, int>> followed;
  for (int round = 0; round < Experiment::kCellRounds; ++round) {
    const auto begin = log.begin() + 8 + round * kSlots;
    EXPECT_EQ(std::count(begin, begin + kSlots, 1), 2);
    for (int pos = 1; pos < kSlots; ++pos) {
      followed.emplace(begin[pos - 1], begin[pos]);
    }
  }
  // CH (1) also follows itself: the control after the reference's sample.
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      if (x == y && x != 1) continue;
      EXPECT_EQ(followed.count({x, y}), 1u)
          << "technique " << y << " never follows " << x;
    }
  }
}

// Ten entries and the control make 11 slots: within 11 rounds some slot
// would never follow some other.
TEST(ExperimentDeathTest, CellTooLargeToBalanceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<int> log;
  LoggingIndex ch("CH", 0, &log);
  QuerySet set;
  set.name = "one";
  set.pairs = {{1, 2}};
  const std::vector<CellEntry> entries(Experiment::kMaxCellEntries + 1,
                                       CellEntry{&ch});
  EXPECT_DEATH(Experiment::MeasureCell(entries, set, false),
               "10 entries, more than the 9 whose order 11 rounds balance");
}

TEST(Experiment, CellWithoutChUsesTheFirstEntryAsReference) {
  std::vector<int> log;
  LoggingIndex a("A", 0, &log), b("B", 1, &log);
  QuerySet set;
  set.name = "one";
  set.pairs = {{1, 2}};
  const CellResult cell = Experiment::MeasureCell({{&a}, {&b}}, set, true);
  EXPECT_EQ(cell.reference, 0u);
  EXPECT_EQ(std::count(log.begin(), log.end(), 0),
            2 + 2 * Experiment::kCellRounds);
  EXPECT_EQ(cell.techniques[1].answers, std::vector<Distance>{3});
}

TEST(Experiment, CellCapsSlowEntries) {
  std::vector<int> log;
  LoggingIndex a("CH", 0, &log), slow("Dijkstra", 1, &log);
  QuerySet set;
  set.name = "five";
  for (VertexId i = 0; i < 5; ++i) set.pairs.emplace_back(i, i);
  const CellResult cell =
      Experiment::MeasureCell({{&a}, {&slow, 2}}, set, false);
  EXPECT_EQ(cell.techniques[0].queries, 5u);
  EXPECT_EQ(cell.techniques[1].queries, 2u);
  EXPECT_EQ(cell.techniques[1].answers, (std::vector<Distance>{0, 2}));
  EXPECT_EQ(std::count(log.begin(), log.end(), 1),
            2 * (2 + Experiment::kCellRounds));
}

TEST(Experiment, FastPassesRepeatToTheMinimumSample) {
  std::vector<int> log;
  LoggingIndex ch("CH", 0, &log, 0, /*query_micros=*/0),
      slow("B", 1, &log);
  QuerySet set;
  set.name = "three";
  for (VertexId i = 0; i < 3; ++i) set.pairs.emplace_back(i, i);
  const CellResult cell = Experiment::MeasureCell({{&ch}, {&slow}}, set, false);
  // A near-instant pass repeats until its sample covers the minimum; a
  // pass already that long runs once.
  const size_t repeats = cell.techniques[0].repeats;
  EXPECT_GT(repeats, 1u);
  EXPECT_EQ(cell.techniques[1].repeats, 1u);
  EXPECT_EQ(static_cast<size_t>(std::count(log.begin(), log.end(), 0)),
            3 * (2 + repeats * 2 * Experiment::kCellRounds));
  EXPECT_EQ(std::count(log.begin(), log.end(), 1),
            3 * (2 + Experiment::kCellRounds));
}

TEST(Experiment, EmptySetYieldsZeroQueryRows) {
  std::vector<int> log;
  LoggingIndex ch("CH", 0, &log);
  QuerySet empty;
  empty.name = "empty";
  const CellResult cell = Experiment::MeasureCell({{&ch}}, empty, false);
  ASSERT_EQ(cell.techniques.size(), 1u);
  EXPECT_EQ(cell.techniques[0].queries, 0u);
  EXPECT_EQ(cell.techniques[0].median_micros, 0);
  EXPECT_EQ(cell.techniques[0].iqr_micros, 0);
  EXPECT_TRUE(cell.techniques[0].answers.empty());
  EXPECT_TRUE(std::isnan(cell.aa_ratio));
  EXPECT_TRUE(log.empty());
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
  EXPECT_LT(Experiment::MeasureCell({{&for_distances}}, set, false)
                .techniques[0]
                .median_micros,
            1000.0);
  SlowContextIndex for_paths;
  EXPECT_LT(
      Experiment::MeasureCell({{&for_paths}}, set, true).techniques[0]
          .median_micros,
      1000.0);
}

TEST(Experiment, NullFactoryMeansNotApplicable) {
  BuildResult build = Experiment::MeasureBuild(
      "SILC", [] { return std::unique_ptr<PathIndex>(); });
  EXPECT_EQ(build.index, nullptr);
  EXPECT_EQ(build.index_bytes, 0u);
}

TEST(Experiment, MismatchCounting) {
  // A cell's answers are what its techniques are checked on: CH and
  // bidirectional Dijkstra agree query for query, distances and path
  // lengths alike.
  Graph g = TestNetwork(400, 7);
  ChIndex ch(g);
  BidirectionalDijkstra bidi(g);
  QuerySet set;
  set.name = "agree";
  set.pairs = RandomPairs(g, 80, 9);
  for (bool paths : {false, true}) {
    const CellResult cell =
        Experiment::MeasureCell({{&ch}, {&bidi}}, set, paths);
    ASSERT_EQ(cell.techniques[0].answers.size(), 80u);
    EXPECT_EQ(cell.techniques[0].answers, cell.techniques[1].answers);
  }
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
