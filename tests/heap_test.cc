#include "pq/indexed_heap.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "dijkstra/bidirectional.h"
#include "dijkstra/dijkstra.h"
#include "dijkstra/search.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "gtest/gtest.h"

namespace roadnet {

// Sets a heap's generation stamp, so tests reach the wrap without 2^32
// real Clear() calls.
class IndexedHeapPeer {
 public:
  template <typename Key>
  static void SetGeneration(IndexedHeap<Key>* heap, uint32_t generation) {
    heap->generation_ = generation;
  }
};

namespace {

TEST(IndexedHeap, BasicOrdering) {
  IndexedHeap<uint64_t> heap(10);
  heap.Push(3, 30);
  heap.Push(1, 10);
  heap.Push(2, 20);
  EXPECT_EQ(heap.Size(), 3u);
  EXPECT_EQ(heap.MinItem(), 1u);
  EXPECT_EQ(heap.MinKey(), 10u);
  EXPECT_EQ(heap.PopMin(), 1u);
  EXPECT_EQ(heap.PopMin(), 2u);
  EXPECT_EQ(heap.PopMin(), 3u);
  EXPECT_TRUE(heap.Empty());
}

TEST(IndexedHeap, DecreaseKeyReorders) {
  IndexedHeap<uint64_t> heap(10);
  heap.Push(0, 100);
  heap.Push(1, 50);
  heap.DecreaseKey(0, 10);
  EXPECT_EQ(heap.MinItem(), 0u);
  EXPECT_EQ(heap.KeyOf(0), 10u);
}

TEST(IndexedHeap, PushOrDecreaseSemantics) {
  IndexedHeap<uint64_t> heap(10);
  EXPECT_TRUE(heap.PushOrDecrease(5, 50));
  EXPECT_FALSE(heap.PushOrDecrease(5, 60));  // larger: rejected
  EXPECT_FALSE(heap.PushOrDecrease(5, 50));  // equal: rejected
  EXPECT_TRUE(heap.PushOrDecrease(5, 40));
  EXPECT_EQ(heap.KeyOf(5), 40u);
}

TEST(IndexedHeap, ContainsTracksLifecycle) {
  IndexedHeap<uint64_t> heap(4);
  EXPECT_FALSE(heap.Contains(2));
  heap.Push(2, 7);
  EXPECT_TRUE(heap.Contains(2));
  heap.PopMin();
  EXPECT_FALSE(heap.Contains(2));
  // Re-insertion after pop is allowed.
  heap.Push(2, 9);
  EXPECT_TRUE(heap.Contains(2));
}

TEST(IndexedHeap, ClearIsConstantTimeReusable) {
  IndexedHeap<uint64_t> heap(8);
  for (uint32_t round = 0; round < 5; ++round) {
    for (uint32_t i = 0; i < 8; ++i) heap.Push(i, i + round);
    EXPECT_EQ(heap.MinItem(), 0u);
    heap.Clear();
    EXPECT_TRUE(heap.Empty());
    EXPECT_FALSE(heap.Contains(0));
  }
}

TEST(IndexedHeap, RandomizedAgainstStdPriorityQueue) {
  constexpr uint32_t kItems = 300;
  IndexedHeap<uint64_t> heap(kItems);
  std::vector<uint64_t> best(kItems, ~uint64_t{0});
  Rng rng(99);

  // Random pushes and decreases, then drain and compare with a reference
  // selection sort over the final keys.
  for (int op = 0; op < 5000; ++op) {
    const uint32_t item = static_cast<uint32_t>(rng.NextBelow(kItems));
    const uint64_t key = rng.NextBelow(1000000);
    if (!heap.Contains(item)) {
      if (best[item] != ~uint64_t{0}) continue;  // already popped? not yet
      heap.Push(item, key);
      best[item] = key;
    } else if (key < heap.KeyOf(item)) {
      heap.DecreaseKey(item, key);
      best[item] = key;
    }
  }
  uint64_t last = 0;
  size_t popped = 0;
  while (!heap.Empty()) {
    const uint64_t k = heap.MinKey();
    const uint32_t item = heap.PopMin();
    EXPECT_GE(k, last);
    EXPECT_EQ(k, best[item]);
    last = k;
    ++popped;
  }
  size_t expected = 0;
  for (uint64_t b : best) {
    if (b != ~uint64_t{0}) ++expected;
  }
  EXPECT_EQ(popped, expected);
}

// Growing mid-search keeps every queued item, key and Seen/Popped state,
// and the new items start unseen.
TEST(IndexedHeap, GrowKeepsItemsAndAddsUnseenOnes) {
  IndexedHeap<uint64_t> heap(4);
  heap.Push(0, 40);
  heap.Push(1, 10);
  heap.Push(2, 30);
  EXPECT_EQ(heap.PopMin(), 1u);
  heap.Grow(100);
  heap.Grow(50);  // never shrinks
  EXPECT_TRUE(heap.Popped(1));
  EXPECT_TRUE(heap.Contains(0));
  EXPECT_EQ(heap.KeyOf(2), 30u);
  EXPECT_FALSE(heap.Seen(3));
  for (uint32_t item = 4; item < 100; ++item) {
    EXPECT_FALSE(heap.Seen(item)) << item;
    heap.Push(item, 1000 - item);
  }
  heap.DecreaseKey(0, 5);
  EXPECT_EQ(heap.PopMin(), 0u);
  EXPECT_EQ(heap.PopMin(), 2u);
  for (uint32_t item = 99; item >= 4; --item) EXPECT_EQ(heap.PopMin(), item);
  EXPECT_TRUE(heap.Empty());
  heap.Clear();
  EXPECT_FALSE(heap.Seen(99));
}

TEST(IndexedHeap, ClearSurvivesGenerationWrap) {
  IndexedHeap<uint64_t> heap(8);
  heap.Push(3, 30);
  heap.PopMin();
  IndexedHeapPeer::SetGeneration(&heap,
                                 std::numeric_limits<uint32_t>::max());
  heap.Clear();  // the stamp wraps here
  for (uint32_t item = 0; item < 8; ++item) {
    EXPECT_FALSE(heap.Contains(item)) << item;
    EXPECT_FALSE(heap.Seen(item)) << item;
  }
  heap.Push(5, 50);
  heap.Push(3, 20);
  EXPECT_TRUE(heap.Contains(5));
  EXPECT_EQ(heap.PopMin(), 3u);
  EXPECT_TRUE(heap.Popped(3));
  EXPECT_FALSE(heap.Popped(5));
  EXPECT_EQ(heap.PopMin(), 5u);
  EXPECT_TRUE(heap.Empty());
}

// Every query clears its heaps, so a long-lived context wraps their
// stamps after 2^32 - 1 queries; the answers must stay exact across it.
TEST(IndexedHeap, BidirectionalQueriesSurviveGenerationWrap) {
  const Graph g = TestNetwork(300, 4);
  BidirectionalDijkstra bidi(g);
  Dijkstra oracle(g);
  const auto ctx = bidi.NewContext();
  const auto pairs = RandomPairs(g, 8, 11);
  bidi.DistanceQuery(ctx.get(), pairs[0].first, pairs[0].second);
  auto* sides = static_cast<BidirectionalContext*>(ctx.get());
  for (SearchState* side : {&sides->forward, &sides->backward}) {
    IndexedHeapPeer::SetGeneration(&side->heap,
                                   std::numeric_limits<uint32_t>::max() - 2);
  }
  // The third query's Clear() wraps both stamps.
  for (const auto& [s, t] : pairs) {
    EXPECT_EQ(bidi.DistanceQuery(ctx.get(), s, t), oracle.Run(s, t))
        << s << " -> " << t;
  }
}

}  // namespace
}  // namespace roadnet
