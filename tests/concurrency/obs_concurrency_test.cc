// Concurrency tests for the observability layer (the `tsan`/`obsv2` ctest
// labels run this binary under ThreadSanitizer): histogram and gauge
// totals under contention, exports that stay valid while writers race
// them, the per-thread span attribution regression — path-containment jobs
// on four pool threads in full trace mode must never link a span to a
// parent recorded by a different thread — and per-query profile records
// that collect only the work run under their own context.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "automata/alphabet.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "containment/batch.h"
#include "obs/counters.h"
#include "obs/export.h"
#include "obs/gauge.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/subsystems.h"
#include "obs/trace.h"
#include "pathquery/containment.h"
#include "regex/regex.h"
#include "rq/containment.h"
#include "rq/parser.h"

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

// The path-containment jobs with the process default at `workers`
// (restored after).
std::vector<PathContainmentResult> RunBatch(
    const std::vector<PathContainmentJob>& jobs, const Alphabet& alphabet,
    unsigned workers) {
  const unsigned saved = DefaultParallelJobs();
  SetDefaultParallelJobs(workers);
  std::vector<PathContainmentResult> results =
      CheckPathContainmentBatch(jobs, alphabet);
  SetDefaultParallelJobs(saved);
  return results;
}

// Regression test for cross-thread parent resolution: under a 4-worker
// batch in full trace mode, every recorded span's parent must be a span
// recorded by the SAME thread, properly nested around it. The 2RPQ jobs
// nest the fold and complement spans inside the fold pipeline's.
TEST(ObsConcurrencyTest, BatchWorkerSpansParentWithinTheirOwnThread) {
  constexpr int kJobs = 256;
  const char* fragments[] = {"p", "p p- p", "a (b | c)* d", "a- b (c | d-)*",
                             "(a | b)* (c d)+"};
  Alphabet alphabet;
  std::vector<RegexPtr> parsed;
  for (const char* text : fragments) {
    parsed.push_back(ParseRegex(text, &alphabet).value());
  }
  Rng rng(23);
  std::vector<PathContainmentJob> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back({parsed[rng.Below(parsed.size())].get(),
                    parsed[rng.Below(parsed.size())].get()});
  }

  obs::SetTraceMode(obs::TraceMode::kFull);
  std::vector<PathContainmentResult> results = RunBatch(jobs, alphabet, 4);
  ASSERT_EQ(results.size(), jobs.size());

  // Collect before disabling: mode switches clear the recorded session.
  std::vector<obs::SpanRecord> records = obs::CollectSpanRecords();
  obs::SetTraceMode(obs::TraceMode::kDisabled);
  ASSERT_FALSE(records.empty());
  std::set<uint32_t> tids;
  size_t nested = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const obs::SpanRecord& r = records[i];
    tids.insert(r.tid);
    if (r.parent < 0) {
      EXPECT_EQ(r.depth, 0u) << "span " << i;
      continue;
    }
    ++nested;
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
  EXPECT_GT(nested, 0u);
  // 256 jobs across 4 workers: more than one worker lane must appear.
  EXPECT_GE(tids.size(), 2u);
}

// An RQ check that notes rq.method and uc2rpq.method.
void CheckRqPair() {
  auto q1 = ParseRq("q(x,y) := tc[x,y](a(x,y) & b(x,y))");
  auto q2 = ParseRq("q(x,y) := tc[x,y](a(x,y))");
  ASSERT_TRUE(q1.ok() && q2.ok());
  ASSERT_TRUE(CheckRqContainment(*q1, *q2).ok());
}

// A 2RPQ check that notes path.pipeline.
void CheckPathPair() {
  Alphabet alphabet;
  auto q1 = ParseRegex("p", &alphabet);
  auto q2 = ParseRegex("p p- p", &alphabet);
  ASSERT_TRUE(q1.ok() && q2.ok());
  EXPECT_TRUE(CheckPathQueryContainment(**q1, **q2, alphabet).contained);
}

// (a) A check on another thread, under a context without a profile, must
// leave no note in a profile that is collecting at the same time.
TEST(ObsConcurrencyTest, ProfileIgnoresChecksUnderOtherContexts) {
  ExecContext profiled;
  ScopedExecContext scoped(&profiled);
  obs::QueryProfile profile;
  profile.Begin("test", "idle", "", &profiled);
  std::thread other([] {
    ExecContext plain;
    ScopedExecContext other_scoped(&plain);
    CheckRqPair();
  });
  other.join();
  profile.End();
  EXPECT_TRUE(profile.notes().empty());
}

// (b) Two queries profiled at the same time each collect only their own
// plan notes.
TEST(ObsConcurrencyTest, ConcurrentProfilesKeepTheirOwnNotes) {
  obs::QueryProfile rq_profile;
  obs::QueryProfile path_profile;
  std::latch begun(2);
  std::latch checked(2);
  auto run = [&begun, &checked](obs::QueryProfile* profile, void (*check)()) {
    ExecContext ctx;
    ScopedExecContext scoped(&ctx);
    profile->Begin("test", "concurrent", "", &ctx);
    begun.arrive_and_wait();
    check();
    checked.arrive_and_wait();
    profile->End();
  };
  std::thread rq_thread(run, &rq_profile, &CheckRqPair);
  std::thread path_thread(run, &path_profile, &CheckPathPair);
  rq_thread.join();
  path_thread.join();

  std::map<std::string, std::string> rq_notes = rq_profile.notes();
  EXPECT_EQ(rq_notes.count("rq.method"), 1u);
  EXPECT_EQ(rq_notes.count("path.pipeline"), 0u);
  std::map<std::string, std::string> path_notes = path_profile.notes();
  EXPECT_EQ(path_notes,
            (std::map<std::string, std::string>{
                {"path.pipeline", "2rpq-fold"}}));
}

// (c) ParallelFor workers and batch jobs run under the caller's context or
// its mirror, so their notes reach the caller's profile.
TEST(ObsConcurrencyTest, WorkersAndBatchJobsNoteIntoTheCallersProfile) {
  constexpr size_t kItems = 16;
  constexpr size_t kJobs = 8;
  Alphabet alphabet;
  auto q1 = ParseRegex("p", &alphabet);
  auto q2 = ParseRegex("p p- p", &alphabet);
  ASSERT_TRUE(q1.ok() && q2.ok());
  std::vector<PathContainmentJob> jobs(kJobs, {q1->get(), q2->get()});

  ExecContext ctx;
  ScopedExecContext scoped(&ctx);
  obs::QueryProfile profile;
  profile.Begin("test", "fan-out", "", &ctx);
  ParallelFor(kItems, 4, [](size_t i) {
    if (obs::QueryProfile* current = obs::CurrentProfile()) {
      current->AddNote("item." + std::to_string(i), "noted");
    }
  });
  for (const PathContainmentResult& result : RunBatch(jobs, alphabet, 4)) {
    EXPECT_TRUE(result.contained);
  }
  profile.End();

  std::map<std::string, std::string> notes = profile.notes();
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(notes.count("item." + std::to_string(i)), 1u) << i;
  }
  EXPECT_EQ(notes["path.pipeline"], "2rpq-fold");
}

}  // namespace
}  // namespace rq
