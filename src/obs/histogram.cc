#include "obs/histogram.h"

#include <bit>
#include <cmath>

namespace rq {
namespace obs {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<size_t>(value);
  // msb >= kSubBucketBits here; keep the leading 1 plus kSubBucketBits
  // bits, so each power-of-2 range splits into kSubBuckets linear pieces.
  int msb = 63 - std::countl_zero(value);
  int shift = msb - static_cast<int>(kSubBucketBits);
  size_t sub = static_cast<size_t>((value >> shift) & (kSubBuckets - 1));
  return (static_cast<size_t>(msb) - 1) * kSubBuckets + sub;
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < kSubBuckets) return static_cast<uint64_t>(index);
  int msb = static_cast<int>(index / kSubBuckets) + 1;
  uint64_t sub = index % kSubBuckets;
  return (uint64_t{1} << msb) +
         (sub << (msb - static_cast<int>(kSubBucketBits)));
}

uint64_t Histogram::ValueAtQuantile(double q) const {
  if (q >= 1.0) return max();
  return QuantileFromBuckets(SnapshotBuckets(), q);
}

std::array<uint64_t, Histogram::kNumBuckets> Histogram::SnapshotBuckets()
    const {
  std::array<uint64_t, kNumBuckets> snapshot;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

uint64_t Histogram::QuantileFromBuckets(
    const std::array<uint64_t, kNumBuckets>& buckets, double q) {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  uint64_t target = static_cast<uint64_t>(std::ceil(q * total));
  if (target == 0) target = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= target) return BucketLowerBound(i);
  }
  return BucketLowerBound(kNumBuckets - 1);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace rq
