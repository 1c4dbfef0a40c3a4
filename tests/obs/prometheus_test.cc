// Tests for the Prometheus text-exposition rendering (obs/prometheus.h):
// metric-name sanitization, the `_dist` histogram family suffix, and the
// histogram -> cumulative-bucket mapping edge cases — empty histogram,
// single sample, max-bucket saturation near UINT64_MAX, and p99/`le`
// agreement between the rq-obs/2 quantile (bucket lower bound) and the
// Prometheus bucket boundaries (inclusive upper bounds).
//
// The registry is process-wide and shared with every other test in this
// binary, so each test uses uniquely named metrics and parses only its own
// families out of the rendered document.
#include "obs/prometheus.h"

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/counters.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"

namespace rq {
namespace obs {
namespace {

// All sample lines of one family: (labels-or-empty, value), in document
// order. `family` is the full Prometheus name incl. any _dist suffix;
// matches the family's _bucket/_sum/_count series too.
std::vector<std::pair<std::string, uint64_t>> FamilySamples(
    const std::string& text, const std::string& family) {
  std::vector<std::pair<std::string, uint64_t>> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string key = line.substr(0, space);
    std::string name = key.substr(0, key.find('{'));
    if (name != family && name != family + "_bucket" &&
        name != family + "_sum" && name != family + "_count") {
      continue;
    }
    out.emplace_back(key, std::stoull(line.substr(space + 1)));
  }
  return out;
}

uint64_t SampleValue(const std::string& text, const std::string& key) {
  for (const auto& [k, v] : FamilySamples(text, key.substr(0, key.find('{'))))
    if (k == key) return v;
  ADD_FAILURE() << "sample not found: " << key;
  return 0;
}

// Cumulative (le, count) pairs for a histogram family, finite buckets only.
std::vector<std::pair<uint64_t, uint64_t>> FiniteBuckets(
    const std::string& text, const std::string& family) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const std::string prefix = family + "_bucket{le=\"";
  for (const auto& [key, value] : FamilySamples(text, family)) {
    if (key.rfind(prefix, 0) != 0) continue;
    std::string le = key.substr(prefix.size());
    le = le.substr(0, le.find('"'));
    if (le == "+Inf") continue;
    out.emplace_back(std::stoull(le), value);
  }
  return out;
}

TEST(PrometheusTest, MetricNameSanitization) {
  EXPECT_EQ(PrometheusMetricName("containment.states_explored"),
            "rq_containment_states_explored");
  EXPECT_EQ(PrometheusMetricName("fold.peak-live cells"),
            "rq_fold_peak_live_cells");
  EXPECT_EQ(PrometheusMetricName("a:b_C9"), "rq_a:b_C9");
}

TEST(PrometheusTest, CounterAndTypeLines) {
  GetCounter("promtest.counter")->Add(7);
  std::string text = RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE rq_promtest_counter counter\n"),
            std::string::npos);
  EXPECT_EQ(SampleValue(text, "rq_promtest_counter"), 7u);
}

TEST(PrometheusTest, FlightRecordedTotalTracksRecorder) {
  FlightRecorder::Global().Reset();
  FlightRecorder::Global().Record(QueryKind::kGraphEval, kFlightVerdictOk,
                                  10, 1);
  std::string text = RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE rq_flight_recorded_total counter\n"),
            std::string::npos);
  EXPECT_EQ(SampleValue(text, "rq_flight_recorded_total"),
            FlightRecorder::Global().TotalRecorded());
}

// A histogram shares its counter's dotted name by convention; the _dist
// suffix must keep the two families distinct.
TEST(PrometheusTest, HistogramFamilyGetsDistSuffix) {
  GetCounter("promtest.shared")->Add(3);
  GetHistogram("promtest.shared")->Record(3);
  std::string text = RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE rq_promtest_shared counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rq_promtest_shared_dist histogram\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE rq_promtest_shared histogram"),
            std::string::npos);
}

// Edge case: a registered histogram that never recorded still renders a
// complete family — the mandatory +Inf bucket, _sum, and _count, all zero,
// and no finite buckets.
TEST(PrometheusTest, EmptyHistogramRendersZeroFamily) {
  GetHistogram("promtest.empty");
  std::string text = RenderPrometheusText();
  const std::string family = "rq_promtest_empty_dist";
  EXPECT_TRUE(FiniteBuckets(text, family).empty());
  EXPECT_EQ(SampleValue(text, family + "_bucket{le=\"+Inf\"}"), 0u);
  EXPECT_EQ(SampleValue(text, family + "_sum"), 0u);
  EXPECT_EQ(SampleValue(text, family + "_count"), 0u);
}

// Edge case: one sample yields exactly one finite bucket whose `le` is the
// inclusive upper bound of the sample's bucket, and the sample value lies
// in (previous bound, le].
TEST(PrometheusTest, SingleSampleBucketBounds) {
  constexpr uint64_t kValue = 37;
  GetHistogram("promtest.single")->Record(kValue);
  std::string text = RenderPrometheusText();
  const std::string family = "rq_promtest_single_dist";

  auto buckets = FiniteBuckets(text, family);
  ASSERT_EQ(buckets.size(), 1u);
  size_t index = Histogram::BucketIndex(kValue);
  EXPECT_EQ(buckets[0].first, Histogram::BucketLowerBound(index + 1) - 1);
  EXPECT_EQ(buckets[0].second, 1u);
  EXPECT_GE(buckets[0].first, kValue);
  EXPECT_LE(Histogram::BucketLowerBound(index), kValue);
  EXPECT_EQ(SampleValue(text, family + "_bucket{le=\"+Inf\"}"), 1u);
  EXPECT_EQ(SampleValue(text, family + "_sum"), kValue);
  EXPECT_EQ(SampleValue(text, family + "_count"), 1u);
}

// Edge case: a sample in the top bucket cannot get a finite `le`
// (BucketLowerBound(kNumBuckets) would overflow uint64); it must be folded
// into the +Inf bucket only.
TEST(PrometheusTest, MaxBucketSaturationFoldsIntoInf) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  ASSERT_EQ(Histogram::BucketIndex(kMax), Histogram::kNumBuckets - 1);
  GetHistogram("promtest.saturated")->Record(kMax);
  GetHistogram("promtest.saturated")->Record(5);
  std::string text = RenderPrometheusText();
  const std::string family = "rq_promtest_saturated_dist";

  auto buckets = FiniteBuckets(text, family);
  // Only the value-5 bucket gets a finite line; kMax lives in +Inf alone.
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].first,
            Histogram::BucketLowerBound(Histogram::BucketIndex(5) + 1) - 1);
  EXPECT_EQ(buckets[0].second, 1u);
  EXPECT_EQ(SampleValue(text, family + "_bucket{le=\"+Inf\"}"), 2u);
  EXPECT_EQ(SampleValue(text, family + "_count"), 2u);
  EXPECT_EQ(SampleValue(text, family + "_sum"), kMax + 5);  // wraps: 4
}

TEST(PrometheusTest, BucketsAreCumulativeAndEndAtCount) {
  Histogram* hist = GetHistogram("promtest.cumulative");
  for (uint64_t v : {1, 1, 2, 10, 100, 1000, 1000, 100000}) hist->Record(v);
  std::string text = RenderPrometheusText();
  const std::string family = "rq_promtest_cumulative_dist";

  auto buckets = FiniteBuckets(text, family);
  ASSERT_GE(buckets.size(), 4u);
  uint64_t prev_le = 0, prev_count = 0;
  for (const auto& [le, count] : buckets) {
    EXPECT_GT(le, prev_le);        // strictly increasing bounds
    EXPECT_GE(count, prev_count);  // cumulative counts never decrease
    prev_le = le;
    prev_count = count;
  }
  EXPECT_EQ(prev_count, hist->count());  // last finite bucket covers all
  EXPECT_EQ(SampleValue(text, family + "_bucket{le=\"+Inf\"}"),
            hist->count());
}

// The rq-obs/2 JSON export reports p99 as the LOWER bound of the bucket
// holding rank ceil(0.99 * count); the Prometheus `le` is that bucket's
// inclusive UPPER bound. The two must agree on the bucket: the smallest
// `le` whose cumulative count reaches the p99 rank bounds the exported p99
// from above, within one bucket's width.
TEST(PrometheusTest, P99AgreesBetweenJsonExportAndPrometheusBuckets) {
  Histogram* hist = GetHistogram("promtest.p99");
  for (int i = 0; i < 990; ++i) hist->Record(10);
  for (int i = 0; i < 10; ++i) hist->Record(5000);
  uint64_t p99 = hist->ValueAtQuantile(0.99);

  std::string text = RenderPrometheusText();
  auto buckets = FiniteBuckets(text, "rq_promtest_p99_dist");
  ASSERT_FALSE(buckets.empty());

  uint64_t rank = (hist->count() * 99 + 99) / 100;  // ceil(0.99 * count)
  uint64_t chosen_le = 0;
  for (const auto& [le, count] : buckets) {
    if (count >= rank) {
      chosen_le = le;
      break;
    }
  }
  ASSERT_NE(chosen_le, 0u);
  // Same bucket: the JSON p99 is the lower bound, the Prometheus le the
  // upper bound, of one and the same bucket.
  EXPECT_EQ(Histogram::BucketIndex(chosen_le), Histogram::BucketIndex(p99));
  EXPECT_EQ(p99, Histogram::BucketLowerBound(Histogram::BucketIndex(chosen_le)));
  EXPECT_LE(p99, chosen_le);
}

TEST(PrometheusTest, WriteFileRejectsUnwritablePath) {
  EXPECT_FALSE(WritePrometheusTextFile("/nonexistent-dir/metrics.prom").ok());
}

// Exposition-format escaping (0.0.4): label values escape backslash,
// double quote, and newline; HELP text escapes backslash and newline but
// NOT quotes.
TEST(PrometheusTest, LabelValueEscaping) {
  EXPECT_EQ(PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusEscapeLabelValue("two\nlines"), "two\\nlines");
  // A regex query the CLI would install: backslash-heavy, quoted.
  EXPECT_EQ(PrometheusEscapeLabelValue("(a\\-)* <= \"b\""),
            "(a\\\\-)* <= \\\"b\\\"");
}

TEST(PrometheusTest, HelpTextEscaping) {
  EXPECT_EQ(PrometheusEscapeHelp("plain help"), "plain help");
  EXPECT_EQ(PrometheusEscapeHelp("back\\slash"), "back\\\\slash");
  EXPECT_EQ(PrometheusEscapeHelp("two\nlines"), "two\\nlines");
  EXPECT_EQ(PrometheusEscapeHelp("keep \"quotes\""), "keep \"quotes\"");
}

// The CLI's query text reaches the export as rq_query_info{query="..."};
// arbitrary regex/RQ syntax (backslashes, quotes, newlines) must render as
// one parseable sample line.
TEST(PrometheusTest, QueryInfoMetricCarriesEscapedLabel) {
  SetFlightQueryLabel("2rpq (a\\-)* <= \"b\"\nmultiline");
  std::string text = RenderPrometheusText();
  SetFlightQueryLabel("");
  EXPECT_NE(text.find("# TYPE rq_query_info gauge\n"), std::string::npos);
  EXPECT_NE(
      text.find(
          "rq_query_info{query=\"2rpq (a\\\\-)* <= \\\"b\\\"\\nmultiline\"} 1"),
      std::string::npos);
  // The raw newline must NOT appear inside the rendered document.
  EXPECT_EQ(text.find("\"b\"\nmultiline"), std::string::npos);
}

TEST(PrometheusTest, NoQueryLabelMeansNoInfoMetric) {
  SetFlightQueryLabel("");
  std::string text = RenderPrometheusText();
  EXPECT_EQ(text.find("rq_query_info"), std::string::npos);
}

// Every subsystem family is registered before the first render, so a
// scrape lists it at 0 before any request reached it (ctest runs each
// case in a fresh process, where no query has run).
TEST(PrometheusTest, SubsystemSeriesArePresentBeforeAnyQuery) {
  std::string text = RenderPrometheusText();
  for (const char* name :
       {"rq_datalog_evals", "rq_datalog_tuples_derived", "rq_rq_evals",
        "rq_graph_product_states", "rq_incr_pairs_added"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " counter\n"),
              std::string::npos)
        << name;
  }
  EXPECT_NE(text.find("# TYPE rq_datalog_rounds_dist histogram\n"),
            std::string::npos);
}

TEST(PrometheusTest, HelpLinesCarryDottedSourceNames) {
  GetCounter("promtest.helped")->Add(1);
  std::string text = RenderPrometheusText();
  EXPECT_NE(text.find("# HELP rq_promtest_helped promtest.helped\n"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace rq
