#ifndef ROADNET_PCPD_BLOCK_PAIRS_H_
#define ROADNET_PCPD_BLOCK_PAIRS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

// The quadtree-block pairs that PcpdIndex and ApproxDistanceOracle
// store. Both refine pairs of aligned Morton blocks over the same unique
// codes (spatial/unique_morton.h) and probe one pair per level at query
// time.
namespace roadnet::pcpd {

// Block identifier: Morton base plus the level packed in the top bits.
inline uint64_t BlockId(uint64_t base, uint32_t level) {
  return base | (static_cast<uint64_t>(level) << 58);
}

struct PairKey {
  uint64_t x;  // BlockId of the source-side block
  uint64_t y;  // BlockId of the target-side block
  friend bool operator==(const PairKey& p, const PairKey& q) {
    return p.x == q.x && p.y == q.y;
  }
};

// noexcept keeps the maps as small as IndexBytes() says: libstdc++
// caches each element's hash code in its node, 8 more bytes, when the
// hasher may throw. Without it a node is key + value + next pointer.
struct PairKeyHash {
  size_t operator()(const PairKey& k) const noexcept {
    uint64_t h = k.x * 0x9e3779b97f4a7c15ULL ^ (k.y + 0x517cc1b727220a95ULL);
    h ^= h >> 32;
    return static_cast<size_t>(h * 0xff51afd7ed558ccdULL);
  }
};

// Positions [lo, hi) of a block's vertices in the code-sorted order.
struct BlockRange {
  uint32_t lo;
  uint32_t hi;
  bool Empty() const { return lo >= hi; }
  uint32_t Size() const { return hi - lo; }
};

inline BlockRange FindBlockRange(const std::vector<uint64_t>& sorted_codes,
                                 uint64_t base, uint32_t level) {
  const uint64_t end = base + (uint64_t{1} << (2 * level));
  const auto lo =
      std::lower_bound(sorted_codes.begin(), sorted_codes.end(), base);
  const auto hi = std::lower_bound(lo, sorted_codes.end(), end);
  return BlockRange{static_cast<uint32_t>(lo - sorted_codes.begin()),
                    static_cast<uint32_t>(hi - sorted_codes.begin())};
}

}  // namespace roadnet::pcpd

#endif  // ROADNET_PCPD_BLOCK_PAIRS_H_
