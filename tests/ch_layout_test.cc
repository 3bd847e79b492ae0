// Tests for the rank-permuted, SoA-split CH search core: arc-index
// unpacking performs zero edge searches, the context-taking upward
// search space reuses caller scratch, and the layout answers exactly
// like bidirectional Dijkstra — including under 8 concurrent contexts
// sharing one immutable index (run under TSan via scripts/check.sh).

#include <atomic>
#include <thread>
#include <vector>

#include "ch/ch_index.h"
#include "dijkstra/bidirectional.h"
#include "routing/path.h"
#include "tests/test_util.h"
#include "gtest/gtest.h"

namespace roadnet {
namespace {

TEST(ChLayout, PathUnpackingPerformsNoEdgeSearches) {
  Graph g = TestNetwork(600, 7);
  ChIndex ch(g);
  auto ctx = ch.NewContext();
  uint64_t unpacked = 0;
  for (auto [s, t] : RandomPairs(g, 150, 3)) {
    ch.PathQuery(ctx.get(), s, t);
    // The arc-index layout never performs a FindEdge-style binary search:
    // every shortcut was resolved to its child arc indices at build time.
    EXPECT_EQ(ctx->counters.edge_searches, 0u) << "s=" << s << " t=" << t;
    unpacked += ctx->counters.shortcuts_unpacked;
  }
  // The assertion above is only meaningful if unpacking actually ran.
  EXPECT_GT(unpacked, 0u);
}

TEST(ChLayout, UpwardSearchSpaceReusesCallerContext) {
  Graph g = TestNetwork(400, 11);
  ChIndex ch(g);
  auto ctx = ch.NewContext();
  std::vector<std::pair<VertexId, Distance>> out;
  ch.UpwardSearchSpace(ctx.get(), 17, &out);
  ASSERT_FALSE(out.empty());
  // Same context, same scratch: a second call must produce the identical
  // space (stale generation state cannot leak between calls).
  auto first = out;
  ch.UpwardSearchSpace(ctx.get(), 17, &out);
  EXPECT_EQ(first, out);
  // Interleaving distance queries on the same context must not corrupt
  // subsequent search spaces.
  ch.DistanceQuery(ctx.get(), 1, 300);
  ch.UpwardSearchSpace(ctx.get(), 17, &out);
  EXPECT_EQ(first, out);
}

TEST(ChLayout, RankIsAPermutation) {
  Graph g = TestNetwork(300, 5);
  ChIndex ch(g);
  std::vector<bool> seen(g.NumVertices(), false);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const uint32_t r = ch.RankOf(v);
    ASSERT_LT(r, g.NumVertices());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

// 2000 random (s,t) pairs per generator size against the bidirectional
// Dijkstra ground truth: distances and unpacked path weights must be
// identical. Eight threads each drive their own context over a shared
// immutable index, so under TSan this doubles as the concurrency proof
// for the rank-space scratch arrays.
TEST(ChLayout, MatchesBidirectionalDijkstraAcross8Contexts) {
  for (uint32_t size : {400u, 1100u}) {
    Graph g = TestNetwork(size, 23 + size);
    ChIndex ch(g);
    BidirectionalDijkstra bidi(g);
    const auto bidi_ctx = bidi.NewContext();
    const auto pairs = RandomPairs(g, 2000, size);
    std::vector<Distance> truth(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      truth[i] = bidi.DistanceQuery(bidi_ctx.get(), pairs[i].first,
                                    pairs[i].second);
    }

    constexpr int kThreads = 8;
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        auto ctx = ch.NewContext();
        for (size_t i = w; i < pairs.size(); i += kThreads) {
          const auto [s, t] = pairs[i];
          if (ch.DistanceQuery(ctx.get(), s, t) != truth[i]) {
            ++failures;
            continue;
          }
          const Path path = ch.PathQuery(ctx.get(), s, t);
          if (truth[i] == kInfDistance) {
            if (!path.empty()) ++failures;
            continue;
          }
          if (path.empty() || path.front() != s || path.back() != t ||
              !IsValidPath(g, path) || PathWeight(g, path) != truth[i]) {
            ++failures;
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0u) << "size=" << size;
  }
}

}  // namespace
}  // namespace roadnet
