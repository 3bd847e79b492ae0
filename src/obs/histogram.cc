#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace roadnet {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kPrecisionBits;
  return static_cast<size_t>(shift + 1) * kSubBuckets +
         static_cast<size_t>((value >> shift) - kSubBuckets);
}

uint64_t Histogram::BucketLow(size_t index) {
  if (index < kSubBuckets) return index;
  const int shift = static_cast<int>(index / kSubBuckets) - 1;
  const uint64_t sub = index % kSubBuckets;
  return (kSubBuckets + sub) << shift;
}

uint64_t Histogram::BucketMid(size_t index) {
  if (index < kSubBuckets) return index;
  const int shift = static_cast<int>(index / kSubBuckets) - 1;
  const uint64_t width = 1ull << shift;
  return BucketLow(index) + (width >> 1);
}

void Histogram::Record(uint64_t value) {
  if (buckets_.empty()) buckets_.resize(kNumBuckets);
  buckets_[BucketIndex(value)]++;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_++;
  sum_ += static_cast<double>(value);
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.resize(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0ull);
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0;
}

uint64_t Histogram::Min() const { return count_ == 0 ? 0 : min_; }

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

uint64_t Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      // The bucket midpoint, clamped so no quantile falls outside the
      // exactly-tracked [min, max] envelope.
      return std::clamp(BucketMid(i), min_, max_);
    }
  }
  return max_;
}

}  // namespace roadnet
