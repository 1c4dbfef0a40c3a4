// Tests for the per-query profile record (obs/profile.h): subsystem
// annotations (notes), the rq-profile/2 JSON and text reports, and
// reconciliation of the report with the registry at End().
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

TEST(ProfileTest, AnnotationsInReport) {
  QueryProfile profile;
  profile.Begin("test", "unit", "annotations");
  profile.AddNote("dispatch.method", "2rpq-fold");
  profile.End();

  std::string json = profile.ToJson().Dump();
  EXPECT_NE(json.find("\"rq-profile/2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dispatch.method\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"2rpq-fold\""), std::string::npos) << json;
  EXPECT_EQ(profile.ToJson().Find("workers"), nullptr) << json;
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

// The names of the rows for which `keep` holds, in order.
template <typename Row, typename Keep>
std::vector<std::string> Names(const std::vector<Row>& rows, Keep keep) {
  std::vector<std::string> names;
  for (const Row& row : rows) {
    if (keep(row)) names.push_back(row.name);
  }
  return names;
}

// The row named `name` in one section of a rendered report, or null.
const JsonValue* FindRow(const JsonValue& report, const char* section,
                         const std::string& name) {
  for (const JsonValue& row : report.Find(section)->items()) {
    if (row.Find("name")->string_value() == name) return &row;
  }
  return nullptr;
}

// Reconciliation contract: the report is the registry at End() — exactly
// its non-zero counter, histogram and gauge rows, with the values a
// registry snapshot holds (histogram quantiles from its buckets).
TEST(ProfileTest, DeltasReconcileWithGlobalRegistry) {
  GetCounter("proftest.reconcile_quiet");  // registered, never moved
  Histogram* hist = GetHistogram("proftest.reconcile_hist");
  Gauge* gauge = GetGauge("proftest.reconcile_gauge");

  QueryProfile profile;
  profile.Begin("test", "unit", "reconcile");
  GetCounter("proftest.reconcile_a")->Add(13);
  for (uint64_t value : {1, 2, 3}) hist->Record(value);
  gauge->Set(40);
  gauge->Set(25);
  profile.End();
  const MetricsSnapshot registry = Registry::Global().Snapshot();

  auto all = [](const auto&) { return true; };
  EXPECT_EQ(Names(profile.counters(), all),
            Names(registry.counters,
                  [](const CounterSample& row) { return row.value != 0; }));
  EXPECT_EQ(Names(profile.histograms(), all),
            Names(registry.histograms,
                  [](const HistogramSample& row) { return row.count != 0; }));
  EXPECT_EQ(Names(profile.gauges(), all),
            Names(registry.gauges, [](const GaugeSample& row) {
              return row.value != 0 || row.peak != 0;
            }));

  JsonValue report = profile.ToJson();
  EXPECT_EQ(FindRow(report, "counters", "proftest.reconcile_quiet"), nullptr);
  const JsonValue* counter =
      FindRow(report, "counters", "proftest.reconcile_a");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Find("delta")->number_value(), 13);
  // Values < 4 land in exact singleton buckets, so p50 and p99 are exact.
  const JsonValue* histogram =
      FindRow(report, "histograms", "proftest.reconcile_hist");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->Find("count")->number_value(), 3);
  EXPECT_EQ(histogram->Find("sum")->number_value(), 6);
  EXPECT_EQ(histogram->Find("p50")->number_value(), 2);
  EXPECT_EQ(histogram->Find("p99")->number_value(), 3);
  EXPECT_EQ(histogram->Find("max")->number_value(), 3);
  const JsonValue* level =
      FindRow(report, "gauges", "proftest.reconcile_gauge");
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->Find("end")->number_value(), 25);
  EXPECT_EQ(level->Find("peak")->number_value(), 40);
  EXPECT_TRUE(level->Find("peak_raised")->bool_value());
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
