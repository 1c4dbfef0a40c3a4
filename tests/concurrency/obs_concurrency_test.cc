// Concurrency tests for the observability layer (the `tsan`/`obsv2` ctest
// labels run this binary under ThreadSanitizer): histogram and gauge
// totals under contention, exports that stay valid while writers race
// them, and the per-thread span attribution regression — a multi-worker
// containment batch in full trace mode must never link a span to a parent
// recorded by a different thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "automata/alphabet.h"
#include "common/rng.h"
#include "containment/batch.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/gauge.h"
#include "obs/histogram.h"
#include "obs/prometheus.h"
#include "obs/subsystems.h"
#include "obs/trace.h"
#include "regex/regex.h"

namespace rq {
namespace {

TEST(ObsConcurrencyTest, HistogramConcurrentRecordsPreserveTotals) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 25000;
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.sum(), n * (n - 1) / 2);  // each value 0..n-1 exactly once
  EXPECT_EQ(h.max(), n - 1);
  EXPECT_GT(h.ValueAtQuantile(0.99), h.ValueAtQuantile(0.50));
}

TEST(ObsConcurrencyTest, GaugeConcurrentAddSubBalancesToZero) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 25000;
  obs::Gauge* g = obs::GetGauge("test.concurrent_gauge");
  g->Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([g] {
      for (int i = 0; i < kRounds; ++i) {
        g->Add(1);
        g->Sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g->value(), 0);
  EXPECT_GE(g->peak(), 1);
  EXPECT_LE(g->peak(), kThreads);
}

// Every sample line of a Prometheus exposition, keyed by name plus labels.
std::map<std::string, uint64_t> ParseSamples(const std::string& text) {
  std::map<std::string, uint64_t> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    samples[line.substr(0, space)] = std::stoull(line.substr(space + 1));
  }
  return samples;
}

// A scrape that races live writers must still publish a valid exposition:
// no finite cumulative bucket above the `le="+Inf"` bucket, that bucket
// equal to `_count`, and no gauge level above its peak, in the Prometheus
// render and in the rq-obs/2 snapshot alike.
TEST(ObsConcurrencyTest, ExportsStayValidWhileWritersRace) {
  constexpr int kWriters = 3;
  constexpr int kRounds = 200;
  obs::Histogram* hist = obs::GetHistogram("test.racing_histogram");
  obs::Gauge* gauge = obs::GetGauge("test.racing_gauge");
  const std::string family = "rq_test_racing_histogram_dist";
  const std::string bucket_prefix = family + "_bucket{le=\"";
  const std::string inf_key = bucket_prefix + "+Inf\"}";

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&stop, hist, gauge, t] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        hist->Record((i * 37 + static_cast<uint64_t>(t)) % 4096);
        gauge->Add(1);
      }
    });
  }

  int bucket_above_inf = 0;
  int inf_not_count = 0;
  int level_above_peak = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::map<std::string, uint64_t> samples =
        ParseSamples(obs::RenderPrometheusText());
    uint64_t inf = samples.at(inf_key);
    for (auto it = samples.lower_bound(bucket_prefix);
         it != samples.end() && it->first.rfind(bucket_prefix, 0) == 0;
         ++it) {
      if (it->second > inf) ++bucket_above_inf;
    }
    if (inf != samples.at(family + "_count")) ++inf_not_count;
    if (samples.at("rq_test_racing_gauge") >
        samples.at("rq_test_racing_gauge_peak")) {
      ++level_above_peak;
    }

    obs::JsonValue snapshot = obs::SnapshotJson();
    for (const obs::JsonValue& entry : snapshot.Find("gauges")->items()) {
      if (entry.Find("name")->string_value() != "test.racing_gauge") continue;
      if (entry.Find("value")->number_value() >
          entry.Find("peak")->number_value()) {
        ++level_above_peak;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(bucket_above_inf, 0);
  EXPECT_EQ(inf_not_count, 0);
  EXPECT_EQ(level_above_peak, 0);
}

constexpr uint32_t kNumSymbols = 3;

Nfa RandomNfa(Rng& rng) {
  uint32_t num_states = 2 + static_cast<uint32_t>(rng.Below(4));
  Nfa nfa(kNumSymbols);
  for (uint32_t s = 0; s < num_states; ++s) nfa.AddState();
  nfa.AddInitial(static_cast<uint32_t>(rng.Below(num_states)));
  uint32_t num_transitions =
      num_states + static_cast<uint32_t>(rng.Below(num_states + 1));
  for (uint32_t t = 0; t < num_transitions; ++t) {
    nfa.AddTransition(static_cast<uint32_t>(rng.Below(num_states)),
                      static_cast<Symbol>(rng.Below(kNumSymbols)),
                      static_cast<uint32_t>(rng.Below(num_states)));
  }
  for (uint32_t s = 0; s < num_states; ++s) {
    if (rng.Below(3) == 0) nfa.SetAccepting(s);
  }
  return nfa;
}

// Regression test for cross-thread parent resolution: under a 4-worker
// batch in full trace mode, every recorded span's parent must be a span
// recorded by the SAME thread, properly nested around it.
TEST(ObsConcurrencyTest, BatchWorkerSpansParentWithinTheirOwnThread) {
  constexpr int kJobs = 256;
  std::vector<Nfa> automata;
  Rng rng(23);
  for (int i = 0; i < 2 * kJobs; ++i) automata.push_back(RandomNfa(rng));
  std::vector<NfaContainmentJob> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back({&automata[2 * i], &automata[2 * i + 1]});
  }

  obs::SetTraceMode(obs::TraceMode::kFull);
  ContainmentBatchOptions options;
  options.jobs = 4;
  std::vector<LanguageContainmentResult> results =
      CheckContainmentBatch(jobs, options);
  ASSERT_EQ(results.size(), jobs.size());

  // Collect before disabling: mode switches clear the recorded session.
  std::vector<obs::SpanRecord> records = obs::CollectSpanRecords();
  obs::SetTraceMode(obs::TraceMode::kDisabled);
  ASSERT_FALSE(records.empty());
  std::set<uint32_t> tids;
  for (size_t i = 0; i < records.size(); ++i) {
    const obs::SpanRecord& r = records[i];
    tids.insert(r.tid);
    if (r.parent < 0) {
      EXPECT_EQ(r.depth, 0u) << "span " << i;
      continue;
    }
    ASSERT_LT(static_cast<size_t>(r.parent), records.size());
    const obs::SpanRecord& parent = records[static_cast<size_t>(r.parent)];
    EXPECT_EQ(parent.tid, r.tid) << "span " << i << " (" << r.name
                                 << ") parented across threads";
    EXPECT_EQ(r.depth, parent.depth + 1) << "span " << i;
    EXPECT_GE(r.start_ns, parent.start_ns) << "span " << i;
    EXPECT_LE(r.start_ns + r.duration_ns,
              parent.start_ns + parent.duration_ns)
        << "span " << i;
  }
  // 256 jobs across 4 workers: more than one worker lane must appear.
  EXPECT_GE(tids.size(), 2u);
}

TEST(ObsConcurrencyTest, BatchQueueDepthGaugeDrainsToZero) {
  constexpr int kJobs = 64;
  std::vector<Nfa> automata;
  Rng rng(7);
  for (int i = 0; i < 2 * kJobs; ++i) automata.push_back(RandomNfa(rng));
  std::vector<NfaContainmentJob> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back({&automata[2 * i], &automata[2 * i + 1]});
  }

  obs::Gauge& depth = obs::BatchCounters::Get().queue_depth;
  depth.Reset();
  ContainmentBatchOptions options;
  options.jobs = 4;
  CheckContainmentBatch(jobs, options);
  EXPECT_EQ(depth.value(), 0);
  EXPECT_EQ(depth.peak(), kJobs);  // the whole batch is enqueued up front
}

}  // namespace
}  // namespace rq
