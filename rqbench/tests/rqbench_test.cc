// The benchmark's own tests: seeded generation is deterministic, the
// percentile and exposition helpers compute what they claim, and a wrong
// answer is caught.
#include <gtest/gtest.h>

#include "drive.h"
#include "obs/json.h"
#include "stats.h"
#include "workload.h"

namespace rqbench {
namespace {

TEST(GenerateTest, SameSeedSameStreamOtherSeedOtherStream) {
  for (Workload w :
       {Workload::kEvalCold, Workload::kAnalyze, Workload::kMixedRw}) {
    auto a = Generate(w, 7, 1);
    auto b = Generate(w, 7, 1);
    auto c = Generate(w, 8, 1);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << WorkloadName(w);
    EXPECT_EQ(a->graph_text, b->graph_text) << WorkloadName(w);
    EXPECT_EQ(a->Fingerprint(), b->Fingerprint()) << WorkloadName(w);
    EXPECT_NE(a->graph_text, c->graph_text) << WorkloadName(w);
    EXPECT_NE(a->Fingerprint(), c->Fingerprint()) << WorkloadName(w);
  }
}

TEST(GenerateTest, FingerprintCoversTheReplaySchedule) {
  auto a = Generate(Workload::kMixedRw, 7, 1);
  ASSERT_TRUE(a.ok());
  EXPECT_GT(a->replay_reads_per_batch, 0u);
  std::string before = a->Fingerprint();
  a->replay_reads_per_batch += 1;
  EXPECT_NE(before, a->Fingerprint());
}

TEST(GenerateTest, SecondsScaleTheFixedWork) {
  auto one = Generate(Workload::kAnalyze, 3, 2);
  auto two = Generate(Workload::kAnalyze, 3, 4);
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_EQ(2 * one->read_order.size(), two->read_order.size());
  EXPECT_EQ(2 * one->writes.size(), two->writes.size());
}

TEST(GenerateTest, ReadOnlyOrdersSplitIntoEqualSlicesOverTheCycles) {
  for (Workload w : {Workload::kEvalCold, Workload::kAnalyze}) {
    auto s = Generate(w, 5, 2);
    ASSERT_TRUE(s.ok()) << WorkloadName(w);
    EXPECT_GT(s->slices, 1u) << WorkloadName(w);
    // Every slice is sent the same number of times in the nominal cycles.
    EXPECT_EQ(kCycles % s->slices, 0u) << WorkloadName(w);
    EXPECT_EQ(s->read_order.size() % s->slices, 0u) << WorkloadName(w);
  }
  auto mixed = Generate(Workload::kMixedRw, 5, 2);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->slices, 1u);
  EXPECT_TRUE(mixed->read_order.empty());
}

TEST(PercentileTest, MatchesHandComputedValues) {
  // Rank (n - 1) * q over the sorted samples, interpolated.
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.9), 3.7);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 1.0), 4);
  EXPECT_DOUBLE_EQ(Percentile({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9),
                   91);
  EXPECT_DOUBLE_EQ(Percentile({5}, 0.9), 5);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(PercentileTest, GroupMediansSkipEmptyGroups) {
  // One request sent in four cycles, one never answered, one in two.
  std::vector<double> medians = GroupMedians({{9, 1, 3, 2}, {}, {5, 7}});
  ASSERT_EQ(medians.size(), 2u);
  EXPECT_DOUBLE_EQ(medians[0], 2.5);
  EXPECT_DOUBLE_EQ(medians[1], 6);
  EXPECT_DOUBLE_EQ(Percentile(medians, 0.9), 5.65);
}

TEST(ExpositionTest, ReadsCountersAndHistogramQuantiles) {
  Exposition e = Exposition::Parse(
      "# TYPE rq_cache_hits counter\n"
      "rq_cache_hits 7\n"
      "rq_lat_dist_bucket{le=\"99\"} 5\n"
      "rq_lat_dist_bucket{le=\"199\"} 10\n"
      "rq_lat_dist_bucket{le=\"+Inf\"} 10\n"
      "rq_lat_dist_sum 1200\n"
      "rq_lat_dist_count 10\n");
  EXPECT_EQ(e.Value("rq_cache_hits"), 7);
  EXPECT_FALSE(e.Value("rq_cache_misses").has_value());
  EXPECT_DOUBLE_EQ(*e.HistogramMean("rq_lat"), 120);
  // The median is the top of the first bucket; 0.75 lies halfway into the
  // second, which starts at max(99, 199 / 1.25).
  EXPECT_DOUBLE_EQ(*e.HistogramQuantile("rq_lat", 0.5), 99);
  EXPECT_DOUBLE_EQ(*e.HistogramQuantile("rq_lat", 0.75), 159.2 + 19.9);
  EXPECT_FALSE(e.HistogramQuantile("rq_other", 0.5).has_value());
}

rq::obs::JsonValue Response(const std::string& text) {
  auto parsed = rq::obs::JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return *parsed;
}

TEST(CheckResponseTest, PlantedWrongAnswersAreFailures) {
  BenchRequest eval;
  eval.type = "eval";
  eval.expected.kind = Expected::Kind::kEval;
  eval.expected.count = 2;
  eval.expected.rows = R"([["n1","n2"],["n1","n3"]])";
  EXPECT_EQ(CheckResponse(eval,
                          Response(R"({"ok":true,"count":2,"tuples":)"
                                   R"([["n1","n2"],["n1","n3"]]})"),
                          nullptr),
            "");
  EXPECT_NE(CheckResponse(eval,
                          Response(R"({"ok":true,"count":3,"tuples":)"
                                   R"([["n1","n2"],["n1","n3"]]})"),
                          nullptr),
            "");
  EXPECT_NE(CheckResponse(eval,
                          Response(R"({"ok":true,"count":2,"tuples":)"
                                   R"([["n1","n2"],["n1","n4"]]})"),
                          nullptr),
            "");
  EXPECT_NE(CheckResponse(eval,
                          Response(R"({"ok":false,"error":"overloaded"})"),
                          nullptr),
            "");

  BenchRequest check;
  check.type = "containment";
  check.expected.kind = Expected::Kind::kVerdict;
  check.expected.verdict = "proved";
  EXPECT_EQ(CheckResponse(check, Response(R"({"ok":true,"verdict":"proved"})"),
                          nullptr),
            "");
  EXPECT_NE(CheckResponse(check,
                          Response(R"({"ok":true,"verdict":"refuted"})"),
                          nullptr),
            "");
}

TEST(CheckResponseTest, EpochsMustNotGoBackward) {
  BenchRequest read;
  read.type = "eval";
  uint64_t epoch = 0;
  EXPECT_EQ(CheckResponse(read, Response(R"({"ok":true,"epoch":3})"), &epoch),
            "");
  EXPECT_EQ(CheckResponse(read, Response(R"({"ok":true,"epoch":3})"), &epoch),
            "");
  EXPECT_NE(CheckResponse(read, Response(R"({"ok":true,"epoch":2})"), &epoch),
            "");
}

}  // namespace
}  // namespace rqbench
