// Lock-free log-bucketed latency/value histograms (the observability
// layer's distribution store; see docs/OBSERVABILITY.md).
//
// A Histogram is a fixed array of relaxed-atomic buckets: 4 singleton
// buckets for values < 4, then one power-of-2 range per leading-bit
// position (2..63), each split into kSubBuckets (4) linear sub-buckets —
// any uint64 value lands in one of 252 buckets with <= 25% relative
// bucket width. Record() is three relaxed atomic adds plus a CAS-max — no lock,
// no allocation — so it is safe from any thread and cheap enough to call
// once per operation (per containment check, per fold construction, per
// fixpoint evaluation), matching the counter flush discipline.
//
// Quantile extraction (p50/p90/p99) returns the LOWER BOUND of the bucket
// containing the requested rank: exact for values < kSubBuckets and for
// values on bucket boundaries (powers of two and their quarter points),
// and an underestimate by < 25% otherwise. The maximum is tracked exactly.
//
// Like counters, named histograms live forever in the one metric registry
// (obs::Registry and the GetHistogram shorthand in obs/counters.h;
// `<subsystem>.<noun>` naming, typically sharing the name of the counter
// whose per-operation distribution they record). Registry snapshots carry
// each histogram's raw buckets. Standalone instances can also be
// constructed directly (the span tracer owns one per span name for
// duration distributions; see obs/trace.h).
#ifndef RQ_OBS_HISTOGRAM_H_
#define RQ_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace rq {
namespace obs {

class Histogram {
 public:
  static constexpr size_t kSubBucketBits = 2;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 4
  // Sub-bucket groups for leading-bit positions 1..63 (the group for
  // bit positions 0-1 is the 4 singleton buckets), so the top bucket's
  // lower bound (2^63 + 3 * 2^61) still fits in a uint64.
  static constexpr size_t kNumBuckets = 63 * kSubBuckets;             // 252

  explicit Histogram(std::string name = std::string())
      : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  // Lower bound of the bucket holding the value at rank ceil(q * count),
  // computed over a relaxed snapshot of the buckets; 0 when empty, the
  // exact maximum for q >= 1. q outside [0, 1] is clamped.
  uint64_t ValueAtQuantile(double q) const;

  // Relaxed copy of the raw per-bucket counts. This is the substrate of
  // registry snapshots (obs/counters.h), which feed both windowed
  // quantiles (obs/profile.h diffs two snapshots) and the Prometheus
  // cumulative-bucket rendering (obs/prometheus.h maps bucket index i to
  // the inclusive upper bound BucketLowerBound(i + 1) - 1).
  std::array<uint64_t, kNumBuckets> SnapshotBuckets() const;

  // Quantile extraction over an externally held bucket snapshot (same
  // lower-bound semantics as ValueAtQuantile; 0 when the snapshot is
  // empty). Lets callers compute quantiles of a bucket DIFFERENCE — the
  // per-query windows of obs/profile.h — without a live Histogram.
  static uint64_t QuantileFromBuckets(
      const std::array<uint64_t, kNumBuckets>& buckets, double q);

  // Zeroes every bucket and the count/sum/max. Not atomic with respect to
  // concurrent Record() calls (meant for tests and per-run bench resets).
  void Reset();

  // Bucket mapping, exposed for boundary tests.
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);

 private:
  std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

}  // namespace obs
}  // namespace rq

#endif  // RQ_OBS_HISTOGRAM_H_
