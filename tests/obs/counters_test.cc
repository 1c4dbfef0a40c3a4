#include "obs/counters.h"

#include <gtest/gtest.h>

namespace rq {
namespace obs {
namespace {

TEST(CountersTest, RegistryInternsHandles) {
  Counter* a = GetCounter("test.interning");
  Counter* b = GetCounter("test.interning");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->name(), "test.interning");
  EXPECT_NE(a, GetCounter("test.interning2"));
}

TEST(CountersTest, AddAndIncrement) {
  Counter* c = GetCounter("test.add_increment");
  uint64_t before = c->value();
  c->Add(40);
  c->Increment();
  c->Increment();
  EXPECT_EQ(c->value(), before + 42);
}

TEST(CountersTest, SnapshotIsNameSorted) {
  GetCounter("test.zzz")->Increment();
  GetCounter("test.aaa")->Increment();
  std::vector<CounterSample> snapshot = Registry::Global().Snapshot().counters;
  ASSERT_GE(snapshot.size(), 2u);
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);
  }
}

TEST(CountersTest, DeltaAttributesOneOperation) {
  GetCounter("test.delta")->Add(100);
  CounterDelta delta;
  EXPECT_EQ(delta.Delta("test.delta"), 0u);
  GetCounter("test.delta")->Add(7);
  EXPECT_EQ(delta.Delta("test.delta"), 7u);
  // Counters registered after the baseline report their full value.
  GetCounter("test.delta_late")->Add(3);
  EXPECT_EQ(delta.Delta("test.delta_late"), 3u);
  // Untouched counters do not show up in Deltas().
  for (const CounterSample& sample : delta.Deltas()) {
    EXPECT_NE(sample.value, 0u) << sample.name;
  }
}

TEST(CountersTest, ResetAllZeroesButKeepsRegistration) {
  Counter* c = GetCounter("test.reset");
  c->Add(5);
  Registry::Global().ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(GetCounter("test.reset"), c);
}

// One ResetAll covers every kind: counters, gauge levels and peaks, and
// histogram counts and buckets.
TEST(CountersTest, ResetAllZeroesEveryKind) {
  Counter* c = GetCounter("test.reset_every_kind");
  Gauge* g = GetGauge("test.reset_every_kind");
  Histogram* h = GetHistogram("test.reset_every_kind");
  c->Add(5);
  g->Set(9);
  g->Set(4);
  h->Record(3);
  h->Record(700);
  Registry::Global().ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->peak(), 0);
  EXPECT_EQ(h->count(), 0u);
  for (uint64_t bucket : h->SnapshotBuckets()) EXPECT_EQ(bucket, 0u);
}

// A counter and a histogram may share a dotted name (as
// containment.states_explored does); the snapshot keeps them apart.
TEST(CountersTest, CounterAndHistogramSharingANameStaySeparate) {
  GetCounter("test.shared_name")->Add(3);
  GetHistogram("test.shared_name")->Record(10);
  GetHistogram("test.shared_name")->Record(20);
  MetricsSnapshot snapshot = Registry::Global().Snapshot();
  const CounterSample* counter =
      FindSample(snapshot.counters, "test.shared_name");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 3u);
  const HistogramSample* histogram =
      FindSample(snapshot.histograms, "test.shared_name");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count, 2u);
  EXPECT_EQ(histogram->sum, 30u);
  EXPECT_EQ(FindSample(snapshot.gauges, "test.shared_name"), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace rq
