#ifndef ROADNET_OBS_HISTOGRAM_H_
#define ROADNET_OBS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace roadnet {

// Mergeable log-bucketed latency histogram (HDR-histogram style).
//
// Values are non-negative integers in an arbitrary unit (QueryEngine
// records nanoseconds). Buckets are exact below 2^kPrecisionBits and
// otherwise split each power-of-two octave into 2^kPrecisionBits linear
// sub-buckets, so every recorded value lands in a bucket whose width is
// at most value / 2^kPrecisionBits — a guaranteed relative error of
// <= 1/2^kPrecisionBits (~1.6% at the default 6 bits). Exact min, max,
// sum, and count are tracked alongside, so Min()/Max()/Mean() are exact
// and only interior quantiles carry bucket error.
//
// A Histogram is a fixed-size array of uint64 counts (29.5 KiB),
// allocated by the first Record or Merge that adds a count and kept from
// then on, Reset included: a histogram nothing records into owns no
// buckets, and after the first value recording is a single add with no
// allocation. Two histograms recorded by different threads merge by
// element-wise addition (Merge), which is how QueryEngine combines
// per-worker histograms into batch percentiles without any locking on
// the query path.
class Histogram {
 public:
  // Sub-bucket resolution: 64 linear sub-buckets per octave.
  static constexpr int kPrecisionBits = 6;
  static constexpr uint64_t kSubBuckets = 1ull << kPrecisionBits;
  // Bucket count covering the full uint64 range: octaves 0..63 above the
  // exact range, 64 sub-buckets each, plus the exact range itself.
  static constexpr size_t kNumBuckets = (64 - kPrecisionBits + 1) * kSubBuckets;

  // Adds one observation. O(1), and allocates only if no bucket exists
  // yet; not thread-safe (use one Histogram per thread and Merge()).
  void Record(uint64_t value);

  // Element-wise addition of another histogram's counts (and min/max/sum
  // tracking). The result is identical to having recorded both value
  // streams into a single histogram.
  void Merge(const Histogram& other);

  // Empties the histogram and keeps its buckets.
  void Reset();

  uint64_t Count() const { return count_; }
  uint64_t Min() const;  // 0 when empty
  uint64_t Max() const { return count_ == 0 ? 0 : max_; }
  double Sum() const { return sum_; }
  double Mean() const;  // 0 when empty

  // Value at quantile q in [0,1]: the representative (midpoint) of the
  // bucket containing the ceil(q * Count())-th smallest observation.
  // q <= 0 returns the exact Min, q >= 1 the exact Max; 0 when empty.
  uint64_t ValueAtQuantile(double q) const;

  // --- Bucket geometry, exposed for tests ---

  // Index of the bucket containing `value`.
  static size_t BucketIndex(uint64_t value);
  // Lowest value mapping to bucket i.
  static uint64_t BucketLow(size_t index);
  // Representative (midpoint) reported for bucket i.
  static uint64_t BucketMid(size_t index);

 private:
  // Empty, or kNumBuckets counts.
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  double sum_ = 0;
};

}  // namespace roadnet

#endif  // ROADNET_OBS_HISTOGRAM_H_
