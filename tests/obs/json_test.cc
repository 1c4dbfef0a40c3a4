#include "obs/json.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "obs/chrome_trace.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/gauge.h"
#include "obs/histogram.h"
#include "obs/prometheus.h"

namespace rq {
namespace obs {
namespace {

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("rq-obs/2"));
  doc.Set("flag", JsonValue::Bool(true));
  doc.Set("nothing", JsonValue::Null());
  doc.Set("count", JsonValue::Number(uint64_t{1234567890123}));
  doc.Set("ratio", JsonValue::Number(0.5));
  doc.Set("text", JsonValue::String("quote \" slash \\ newline \n tab \t"));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Number(int64_t{-3}));
  arr.Append(JsonValue::String("x"));
  doc.Set("items", std::move(arr));

  for (int indent : {-1, 2}) {
    auto parsed = JsonValue::Parse(doc.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Dump(), doc.Dump());
    EXPECT_EQ(parsed->Find("schema")->string_value(), "rq-obs/2");
    EXPECT_TRUE(parsed->Find("flag")->bool_value());
    EXPECT_TRUE(parsed->Find("nothing")->is_null());
    // Large integers survive exactly (no exponent/precision loss).
    EXPECT_EQ(parsed->Find("count")->uint_value(), 1234567890123u);
    EXPECT_EQ(parsed->Find("text")->string_value(),
              "quote \" slash \\ newline \n tab \t");
    ASSERT_EQ(parsed->Find("items")->items().size(), 2u);
    EXPECT_EQ(parsed->Find("items")->items()[0].number_value(), -3.0);
  }
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("'single'").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
}

TEST(JsonTest, SnapshotExportRoundTrips) {
  GetCounter("test.snapshot_roundtrip")->Add(11);
  auto parsed = JsonValue::Parse(SnapshotJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema")->string_value(), "rq-obs/2");

  // Every registered counter appears, name-sorted, with its exact value.
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  std::vector<CounterSample> expected = Registry::Global().Snapshot().counters;
  ASSERT_EQ(counters->items().size(), expected.size());
  bool found = false;
  for (size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& entry = counters->items()[i];
    EXPECT_EQ(entry.Find("name")->string_value(), expected[i].name);
    EXPECT_EQ(entry.Find("value")->uint_value(), expected[i].value);
    found = found || expected[i].name == "test.snapshot_roundtrip";
  }
  EXPECT_TRUE(found);
  ASSERT_NE(parsed->Find("span_stats"), nullptr);
  ASSERT_NE(parsed->Find("dropped_spans"), nullptr);
}

TEST(JsonTest, SnapshotExportsGaugesAndHistograms) {
  GetGauge("test.json_gauge")->Reset();
  GetGauge("test.json_gauge")->Set(4);
  GetGauge("test.json_gauge")->Set(1);
  Histogram* h = GetHistogram("test.json_histogram");
  h->Reset();
  h->Record(2);
  h->Record(2);
  h->Record(1024);

  auto parsed = JsonValue::Parse(SnapshotJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  bool gauge_found = false;
  for (const JsonValue& entry : gauges->items()) {
    if (entry.Find("name")->string_value() != "test.json_gauge") continue;
    gauge_found = true;
    EXPECT_EQ(entry.Find("value")->number_value(), 1.0);
    EXPECT_EQ(entry.Find("peak")->number_value(), 4.0);
  }
  EXPECT_TRUE(gauge_found);

  const JsonValue* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  bool histogram_found = false;
  for (const JsonValue& entry : histograms->items()) {
    if (entry.Find("name")->string_value() != "test.json_histogram") {
      continue;
    }
    histogram_found = true;
    EXPECT_EQ(entry.Find("count")->uint_value(), 3u);
    EXPECT_EQ(entry.Find("sum")->uint_value(), 1028u);
    EXPECT_EQ(entry.Find("max")->uint_value(), 1024u);
    EXPECT_EQ(entry.Find("p50")->uint_value(), 2u);
    EXPECT_EQ(entry.Find("p99")->uint_value(), 1024u);
  }
  EXPECT_TRUE(histogram_found);
}

// /dev/full accepts the open and fails the write; a small output fails
// only when fclose flushes it, so every writer must check that too.
TEST(ExportTest, WritersReportAFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(WriteSnapshotJsonFile("/dev/full").ok());
  EXPECT_FALSE(WriteChromeTraceFile("/dev/full").ok());
  EXPECT_FALSE(WritePrometheusTextFile("/dev/full").ok());
  EXPECT_FALSE(WriteFlightDump("/dev/full").ok());
}

}  // namespace
}  // namespace obs
}  // namespace rq
