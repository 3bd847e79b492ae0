// QueryEngine's reentrancy guard: Run() entered from a second thread
// while a batch is in flight must abort with a diagnostic instead of
// silently handing the same worker contexts to two batches.
//
// Death tests live in their own binary so the TSan stage (which runs the
// Engine* suites) never executes a fork-and-abort under the sanitizer.

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "routing/path_index.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

// A PathIndex whose queries block until released, so the test can hold a
// batch open deterministically while a second Run() comes in.
class BlockingIndex : public PathIndex {
 public:
  std::string Name() const override { return "Blocking"; }
  std::unique_ptr<QueryContext> NewContext() const override {
    return std::make_unique<QueryContext>();
  }
  Distance DistanceQuery(QueryContext*, VertexId, VertexId) const override {
    entered.store(true);
    while (!released.load()) std::this_thread::yield();
    return 0;
  }
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override {
    ctx->path_distance = DistanceQuery(ctx, s, t);
    return {s, t};
  }
  size_t IndexBytes() const override { return 0; }

  mutable std::atomic<bool> entered{false};
  mutable std::atomic<bool> released{false};
};

// The death statement: holds one batch open, then re-enters Run() from a
// second thread, which must trip the assert before touching worker state.
void EnterRunTwice() {
  BlockingIndex index;
  QueryEngine engine(index, 1);
  const std::vector<std::pair<VertexId, VertexId>> queries = {{0, 1}};
  std::thread first([&] { engine.Run(queries); });
  while (!index.entered.load()) std::this_thread::yield();
  engine.Run(queries);
  index.released.store(true);
  first.join();
}

TEST(EngineGuardDeathTest, ConcurrentRunAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(EnterRunTwice(), "entered concurrently");
}

TEST(EngineGuard, SequentialRunsAreFine) {
  // The guard must not misfire on the supported pattern: many batches,
  // one after another, from the same engine.
  BlockingIndex index;
  index.released.store(true);  // never block
  QueryEngine engine(index, 2);
  const std::vector<std::pair<VertexId, VertexId>> queries = {{0, 1}, {2, 3}};
  for (int i = 0; i < 3; ++i) {
    BatchResult result = engine.Run(queries);
    EXPECT_EQ(result.distances.size(), queries.size());
  }
}

}  // namespace
}  // namespace roadnet
