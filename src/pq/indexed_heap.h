#ifndef ROADNET_PQ_INDEXED_HEAP_H_
#define ROADNET_PQ_INDEXED_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace roadnet {

// Indexed 4-ary min-heap supporting decrease-key. Only keys are compared:
// items with equal keys pop in no fixed order.
//
// This is the priority queue behind every Dijkstra variant in the
// repository. Items are dense integer ids in [0, capacity). A 4-ary layout
// is used instead of binary because Dijkstra on road networks is
// decrease-key heavy and the shallower tree wins on sift-up cost and cache
// behaviour.
//
// The position array is persistent across Clear() calls via a generation
// counter, so reusing one heap across many queries costs O(1) per query
// instead of O(capacity). The stamped slot also says whether an item was
// pushed (Seen) or popped (Popped) since the last Clear(), which is all
// the reached/settled state a Dijkstra search needs.
template <typename Key>
class IndexedHeap {
 public:
  explicit IndexedHeap(uint32_t capacity)
      : positions_(capacity, Slot{0, 0}) {}

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Raises the capacity to `capacity` items; never lowers it. Queued
  // items and what Seen/Popped report for every item are unchanged.
  void Grow(uint32_t capacity) {
    if (capacity > positions_.size()) positions_.resize(capacity, Slot{0, 0});
  }

  // Removes all items in O(1) amortized. When the generation stamp wraps
  // (every 2^32 - 1 calls), every slot is reset once, so a slot stamped
  // before the wrap never reads as pushed after it.
  void Clear() {
    heap_.clear();
    if (++generation_ == 0) {
      std::fill(positions_.begin(), positions_.end(), Slot{0, 0});
      generation_ = 1;
    }
  }

  // True if the item is currently queued.
  bool Contains(uint32_t item) const {
    return Seen(item) && positions_[item].position != kPopped;
  }

  // True if the item was pushed since the last Clear(), whether it is
  // still queued or has been popped.
  bool Seen(uint32_t item) const {
    return positions_[item].generation == generation_;
  }

  // True if the item was pushed and then popped since the last Clear().
  bool Popped(uint32_t item) const {
    return Seen(item) && positions_[item].position == kPopped;
  }

  // Key of a queued item. Requires Contains(item).
  Key KeyOf(uint32_t item) const {
    return heap_[positions_[item].position].key;
  }

  // Inserts a new item. Requires !Contains(item).
  void Push(uint32_t item, Key key) {
    assert(!Contains(item));
    heap_.push_back(Entry{key, item});
    positions_[item] =
        Slot{generation_, static_cast<uint32_t>(heap_.size() - 1)};
    SiftUp(static_cast<uint32_t>(heap_.size() - 1));
  }

  // Lowers the key of a queued item. Requires Contains(item) and
  // key <= KeyOf(item).
  void DecreaseKey(uint32_t item, Key key) {
    uint32_t pos = positions_[item].position;
    assert(key <= heap_[pos].key);
    heap_[pos].key = key;
    SiftUp(pos);
  }

  // Inserts the item or lowers its key, whichever applies. Returns false if
  // the item was queued with an equal-or-smaller key already.
  bool PushOrDecrease(uint32_t item, Key key) {
    if (Contains(item)) {
      if (key >= KeyOf(item)) return false;
      DecreaseKey(item, key);
      return true;
    }
    Push(item, key);
    return true;
  }

  // Smallest key. Requires !Empty().
  Key MinKey() const { return heap_[0].key; }
  // Item with the smallest key. Requires !Empty().
  uint32_t MinItem() const { return heap_[0].item; }

  // Removes and returns the item with the smallest key. Requires !Empty().
  uint32_t PopMin() {
    uint32_t item = heap_[0].item;
    positions_[item].position = kPopped;
    if (heap_.size() > 1) {
      heap_[0] = heap_.back();
      heap_.pop_back();
      positions_[heap_[0].item].position = 0;
      SiftDown(0);
    } else {
      heap_.pop_back();
    }
    return item;
  }

 private:
  static constexpr uint32_t kPopped = std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t kArity = 4;

  struct Entry {
    Key key;
    uint32_t item;
  };
  struct Slot {
    uint32_t generation;
    uint32_t position;
  };

  void SiftUp(uint32_t pos) {
    Entry e = heap_[pos];
    while (pos > 0) {
      uint32_t parent = (pos - 1) / kArity;
      if (heap_[parent].key <= e.key) break;
      heap_[pos] = heap_[parent];
      positions_[heap_[pos].item].position = pos;
      pos = parent;
    }
    heap_[pos] = e;
    positions_[e.item].position = pos;
  }

  void SiftDown(uint32_t pos) {
    Entry e = heap_[pos];
    const uint32_t n = static_cast<uint32_t>(heap_.size());
    while (true) {
      uint32_t first_child = pos * kArity + 1;
      if (first_child >= n) break;
      uint32_t last_child = std::min(first_child + kArity, n);
      uint32_t best = first_child;
      for (uint32_t c = first_child + 1; c < last_child; ++c) {
        if (heap_[c].key < heap_[best].key) best = c;
      }
      if (heap_[best].key >= e.key) break;
      heap_[pos] = heap_[best];
      positions_[heap_[pos].item].position = pos;
      pos = best;
    }
    heap_[pos] = e;
    positions_[e.item].position = pos;
  }

  std::vector<Entry> heap_;
  std::vector<Slot> positions_;
  uint32_t generation_ = 1;

  // Lets tests set the generation near its maximum to reach the wrap.
  friend class IndexedHeapPeer;
};

}  // namespace roadnet

#endif  // ROADNET_PQ_INDEXED_HEAP_H_
