// Tests for the per-query profiler (obs/profile.h): window isolation of
// counter/histogram/gauge deltas, single-active semantics, subsystem
// annotations (notes, stats, worker rows), the rq-profile/1 JSON report,
// and reconciliation of profile deltas against the global registry.
#include "obs/profile.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/counters.h"
#include "obs/gauge.h"
#include "obs/histogram.h"

namespace rq {
namespace obs {
namespace {

const ProfileCounterDelta* FindCounter(const QueryProfile& profile,
                                       const std::string& name) {
  for (const ProfileCounterDelta& d : profile.counters())
    if (d.name == name) return &d;
  return nullptr;
}

const ProfileHistogramDelta* FindHistogram(const QueryProfile& profile,
                                           const std::string& name) {
  for (const ProfileHistogramDelta& d : profile.histograms())
    if (d.name == name) return &d;
  return nullptr;
}

const ProfileGaugeDelta* FindGauge(const QueryProfile& profile,
                                   const std::string& name) {
  for (const ProfileGaugeDelta& d : profile.gauges())
    if (d.name == name) return &d;
  return nullptr;
}

// The window must report only growth BETWEEN Begin and End: counts made
// before Begin belong to the baseline, not the query.
TEST(ProfileTest, CounterDeltaIsWindowed) {
  Counter* counter = GetCounter("proftest.windowed_counter");
  counter->Add(3);  // pre-window noise

  QueryProfile profile;
  profile.Begin("test", "unit", "windowed counter");
  EXPECT_EQ(QueryProfile::Active(), &profile);
  counter->Add(5);
  profile.End();

  EXPECT_TRUE(profile.collected());
  EXPECT_EQ(QueryProfile::Active(), nullptr);
  const ProfileCounterDelta* delta =
      FindCounter(profile, "proftest.windowed_counter");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->delta, 5u);
}

// A counter that did not move inside the window must not appear at all.
TEST(ProfileTest, QuietCountersAreOmitted) {
  Counter* counter = GetCounter("proftest.quiet_counter");
  counter->Add(100);

  QueryProfile profile;
  profile.Begin("test", "unit", "quiet counter");
  profile.End();

  EXPECT_EQ(FindCounter(profile, "proftest.quiet_counter"), nullptr);
}

// Windowed quantiles are recomputed from the bucket DIFFERENCE, so a noisy
// pre-window distribution cannot leak into the profiled query's p50/p99.
TEST(ProfileTest, HistogramQuantilesAreWindowed) {
  Histogram* hist = GetHistogram("proftest.windowed_hist");
  for (int i = 0; i < 50; ++i) hist->Record(100000);  // pre-window noise

  QueryProfile profile;
  profile.Begin("test", "unit", "windowed histogram");
  hist->Record(1);
  hist->Record(2);
  hist->Record(3);
  profile.End();

  const ProfileHistogramDelta* delta =
      FindHistogram(profile, "proftest.windowed_hist");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->count, 3u);
  EXPECT_EQ(delta->sum, 6u);
  // Values < 4 land in exact singleton buckets, so the windowed quantiles
  // are exact despite 50 samples of 100000 sitting in the global buckets.
  EXPECT_EQ(delta->p50, 2u);
  EXPECT_EQ(delta->p99, 3u);
  EXPECT_EQ(delta->max, 3u);
}

TEST(ProfileTest, GaugeWindowReportsLevelsAndPeak) {
  Gauge* gauge = GetGauge("proftest.windowed_gauge");
  gauge->Reset();
  gauge->Set(10);

  QueryProfile profile;
  profile.Begin("test", "unit", "gauge window");
  gauge->Set(40);   // raises the peak inside the window
  gauge->Set(25);
  profile.End();

  const ProfileGaugeDelta* delta =
      FindGauge(profile, "proftest.windowed_gauge");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->begin_value, 10);
  EXPECT_EQ(delta->end_value, 25);
  EXPECT_TRUE(delta->peak_raised);
  EXPECT_EQ(delta->end_peak, 40);
}

// One profile at a time: a second Begin while another is active must
// record nothing and leave the first profile in place.
TEST(ProfileTest, SecondActiveProfileRecordsNothing) {
  QueryProfile first;
  first.Begin("test", "unit", "first");
  QueryProfile second;
  second.Begin("test", "unit", "second");
  EXPECT_EQ(QueryProfile::Active(), &first);

  GetCounter("proftest.single_active")->Add(2);
  second.End();
  EXPECT_FALSE(second.collected());
  EXPECT_EQ(QueryProfile::Active(), &first);

  first.End();
  EXPECT_TRUE(first.collected());
  const ProfileCounterDelta* delta =
      FindCounter(first, "proftest.single_active");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->delta, 2u);
}

TEST(ProfileTest, AnnotationsAndWorkersInReport) {
  QueryProfile profile;
  profile.Begin("test", "unit", "annotations");
  profile.AddNote("dispatch.method", "2rpq-fold");
  profile.AddStat("rounds", 3);
  profile.AddStat("rounds", 4);  // accumulates
  profile.RecordWorker(0, 7, 1500);
  profile.RecordWorker(1, 9, 2500);
  profile.End();

  ASSERT_EQ(profile.workers().size(), 2u);
  EXPECT_EQ(profile.workers()[0].worker, 0u);
  EXPECT_EQ(profile.workers()[0].jobs, 7u);
  EXPECT_EQ(profile.workers()[1].busy_ns, 2500u);

  std::string json = profile.ToJson().Dump();
  EXPECT_NE(json.find("\"rq-profile/1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dispatch.method\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"2rpq-fold\""), std::string::npos) << json;
  size_t rounds = json.find("\"rounds\"");
  ASSERT_NE(rounds, std::string::npos) << json;
  size_t value = json.find_first_of("0123456789", rounds + 8);
  ASSERT_NE(value, std::string::npos) << json;
  EXPECT_EQ(json[value], '7') << json;  // stat accumulated: 3 + 4
}

TEST(ProfileTest, TextReportCarriesQueryAndDeltas) {
  QueryProfile profile;
  profile.Begin("rqcheck", "uc2rpq", "x() <= y()");
  GetCounter("proftest.text_counter")->Add(11);
  profile.End();

  std::string text = profile.ToText();
  EXPECT_NE(text.find("rqcheck"), std::string::npos) << text;
  EXPECT_NE(text.find("x() <= y()"), std::string::npos) << text;
  EXPECT_NE(text.find("proftest.text_counter"), std::string::npos) << text;
  EXPECT_NE(text.find("11"), std::string::npos) << text;
}

TEST(ProfileTest, ProfileScopeBeginsAndEnds) {
  QueryProfile profile;
  {
    ProfileScope scope(&profile, "test", "unit", "raii");
    EXPECT_EQ(QueryProfile::Active(), &profile);
    GetCounter("proftest.scope_counter")->Increment();
  }
  EXPECT_EQ(QueryProfile::Active(), nullptr);
  EXPECT_TRUE(profile.collected());
  const ProfileCounterDelta* delta =
      FindCounter(profile, "proftest.scope_counter");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->delta, 1u);
}

// Acceptance property: profile deltas reconcile with the global export —
// for a window in which only this thread touches the registry, every
// profile delta equals the global counter's growth, and in general a
// profile delta can never exceed the global total.
TEST(ProfileTest, DeltasReconcileWithGlobalRegistry) {
  CounterDelta global_baseline;
  QueryProfile profile;
  profile.Begin("test", "unit", "reconcile");
  GetCounter("proftest.reconcile_a")->Add(13);
  GetCounter("proftest.reconcile_b")->Add(29);
  profile.End();

  for (const char* name : {"proftest.reconcile_a", "proftest.reconcile_b"}) {
    const ProfileCounterDelta* delta = FindCounter(profile, name);
    ASSERT_NE(delta, nullptr) << name;
    EXPECT_EQ(delta->delta, global_baseline.Delta(name)) << name;
    EXPECT_LE(delta->delta, GetCounter(name)->value()) << name;
  }
}

TEST(ProfileTest, WallTimeIsMeasured) {
  QueryProfile profile;
  profile.Begin("test", "unit", "wall");
  GetCounter("proftest.wall_counter")->Increment();
  profile.End();
  EXPECT_GT(profile.wall_ns(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace rq
