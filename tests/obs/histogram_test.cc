#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/counters.h"

namespace rq {
namespace obs {
namespace {

TEST(HistogramTest, BucketIndexIsIdentityBelowSubBuckets) {
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
  }
}

TEST(HistogramTest, BucketBoundariesRoundTrip) {
  // Every bucket's lower bound must map back to that bucket, and the value
  // just below it to the previous bucket.
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    uint64_t lower = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lower), i) << "lower bound " << lower;
    if (i > 0) {
      EXPECT_EQ(Histogram::BucketIndex(lower - 1), i - 1)
          << "value " << lower - 1;
    }
  }
}

TEST(HistogramTest, BucketIndexAtPowersOfTwo) {
  // Powers of two start a new top bucket group; their quarter points are
  // the sub-bucket boundaries.
  EXPECT_EQ(Histogram::BucketIndex(4), 4u);
  EXPECT_EQ(Histogram::BucketIndex(5), 5u);
  EXPECT_EQ(Histogram::BucketIndex(7), 7u);
  EXPECT_EQ(Histogram::BucketIndex(8), 8u);
  EXPECT_EQ(Histogram::BucketIndex(10), 9u);   // 8 + 2/4 * 8 range
  EXPECT_EQ(Histogram::BucketIndex(15), 11u);
  EXPECT_EQ(Histogram::BucketIndex(16), 12u);
  // The top of the range still lands inside the table.
  EXPECT_LT(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBuckets);
}

TEST(HistogramTest, BucketWidthIsAtMostTwentyFivePercent) {
  for (size_t i = Histogram::kSubBuckets; i + 1 < Histogram::kNumBuckets;
       ++i) {
    uint64_t lower = Histogram::BucketLowerBound(i);
    uint64_t next = Histogram::BucketLowerBound(i + 1);
    ASSERT_GT(next, lower);
    // Width relative to the lower bound: (next - lower) / lower <= 1/4.
    EXPECT_LE((next - lower) * 4, lower);
  }
}

TEST(HistogramTest, CountSumMaxExact) {
  Histogram h;
  h.Record(1);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(HistogramTest, QuantilesExactForSmallValues) {
  // Values < kSubBuckets occupy exact singleton buckets, so quantiles are
  // exact: ten samples 0,1,2,3 weighted to make each rank unambiguous.
  Histogram h;
  for (int i = 0; i < 5; ++i) h.Record(1);   // ranks 1..5
  for (int i = 0; i < 4; ++i) h.Record(2);   // ranks 6..9
  h.Record(3);                               // rank 10
  EXPECT_EQ(h.ValueAtQuantile(0.50), 1u);    // rank ceil(0.5*10)=5
  EXPECT_EQ(h.ValueAtQuantile(0.90), 2u);    // rank 9
  EXPECT_EQ(h.ValueAtQuantile(0.99), 3u);    // rank 10
  EXPECT_EQ(h.ValueAtQuantile(1.0), 3u);     // exact max
}

TEST(HistogramTest, QuantilesExactOnBucketBoundaries) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(64);
  h.Record(1024);
  EXPECT_EQ(h.ValueAtQuantile(0.50), 64u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 64u);   // rank 99 of 100
  EXPECT_EQ(h.ValueAtQuantile(1.0), 1024u);
}

TEST(HistogramTest, QuantileReturnsBucketLowerBound) {
  Histogram h;
  h.Record(70);  // inside bucket [64, 80)
  uint64_t p50 = h.ValueAtQuantile(0.5);
  EXPECT_EQ(p50, Histogram::BucketLowerBound(Histogram::BucketIndex(70)));
  EXPECT_LE(p50, 70u);
  EXPECT_GT(p50 * 5, uint64_t{70} * 4);  // underestimate by < 25%
}

TEST(HistogramTest, EmptyAndClampedQuantiles) {
  Histogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
  h.Record(42);
  EXPECT_EQ(h.ValueAtQuantile(-1.0), h.ValueAtQuantile(0.0));
  EXPECT_EQ(h.ValueAtQuantile(2.0), 42u);  // clamped to max
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h;
  h.Record(7);
  h.Record(9000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 0u);
}

TEST(HistogramTest, RegistryInternsAndSnapshots) {
  Histogram* h = GetHistogram("test.histogram_registry");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h, GetHistogram("test.histogram_registry"));
  EXPECT_EQ(h->name(), "test.histogram_registry");
  h->Reset();
  h->Record(3);
  h->Record(5);

  bool found = false;
  std::vector<HistogramSample> snapshot =
      Registry::Global().Snapshot().histograms;
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);  // name-sorted
  }
  for (const HistogramSample& s : snapshot) {
    if (s.name != "test.histogram_registry") continue;
    found = true;
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.sum, 8u);
    EXPECT_EQ(s.max, 5u);
    EXPECT_EQ(Histogram::QuantileFromBuckets(s.buckets, 0.50), 3u);
    EXPECT_EQ(Histogram::QuantileFromBuckets(s.buckets, 0.99), 5u);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace obs
}  // namespace rq
