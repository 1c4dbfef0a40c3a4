// Tests for the parallel batch-containment engine (src/containment/batch.h):
// verdict equality with the serial checkers across worker counts and
// algorithms, deterministic result ordering, the process-default jobs knob,
// and concurrent batches sharing the enabled cache (the `tsan` ctest label
// runs this binary under ThreadSanitizer).
#include "containment/batch.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "automata/alphabet.h"
#include "cache/automata_cache.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/counters.h"
#include "regex/regex.h"

namespace rq {
namespace {

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

struct NfaPool {
  std::vector<Nfa> automata;
  std::vector<NfaContainmentJob> jobs;
};

NfaPool MakePool(int num_jobs, uint64_t seed) {
  NfaPool pool;
  Rng rng(seed);
  for (int i = 0; i < 2 * num_jobs; ++i) {
    pool.automata.push_back(RandomNfa(rng));
  }
  for (int i = 0; i < num_jobs; ++i) {
    pool.jobs.push_back({&pool.automata[2 * i], &pool.automata[2 * i + 1]});
  }
  return pool;
}

TEST(BatchContainmentTest, ParallelVerdictsMatchSerialForEveryAlgo) {
  NfaPool pool = MakePool(32, 17);
  for (ContainmentAlgo algo : {ContainmentAlgo::kOnTheFly,
                               ContainmentAlgo::kAntichain,
                               ContainmentAlgo::kExplicit}) {
    ContainmentBatchOptions serial;
    serial.jobs = 1;
    serial.algo = algo;
    std::vector<LanguageContainmentResult> expected =
        CheckContainmentBatch(pool.jobs, serial);
    for (unsigned jobs : {2u, 4u, 8u}) {
      ContainmentBatchOptions parallel = serial;
      parallel.jobs = jobs;
      std::vector<LanguageContainmentResult> got =
          CheckContainmentBatch(pool.jobs, parallel);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].contained, expected[i].contained)
            << "algo " << static_cast<int>(algo) << " jobs " << jobs
            << " pair " << i;
        if (!got[i].contained) {
          // Counterexamples may differ between runs only for the antichain
          // engine (not length-minimal); they must still separate.
          EXPECT_TRUE(pool.jobs[i].a->Accepts(got[i].counterexample));
          EXPECT_FALSE(pool.jobs[i].b->Accepts(got[i].counterexample));
        }
      }
    }
  }
}

TEST(BatchContainmentTest, ResultsLandAtTheirJobIndex) {
  // Self-containment jobs interleaved with an impossible one: the verdict
  // pattern pins each result to its index even under parallel scheduling.
  Nfa accepts_a(kNumSymbols);
  accepts_a.AddState();
  accepts_a.AddState();
  accepts_a.AddInitial(0);
  accepts_a.SetAccepting(1);
  accepts_a.AddTransition(0, 0, 1);
  Nfa empty(kNumSymbols);
  empty.AddState();
  empty.AddInitial(0);

  std::vector<NfaContainmentJob> jobs;
  for (int i = 0; i < 64; ++i) {
    if (i % 3 == 2) {
      jobs.push_back({&accepts_a, &empty});  // refuted
    } else {
      jobs.push_back({&accepts_a, &accepts_a});  // contained
    }
  }
  ContainmentBatchOptions options;
  options.jobs = 8;
  std::vector<LanguageContainmentResult> results =
      CheckContainmentBatch(jobs, options);
  ASSERT_EQ(results.size(), jobs.size());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(results[i].contained, i % 3 != 2) << "index " << i;
  }
}

TEST(BatchContainmentTest, ZeroJobsUsesProcessDefault) {
  NfaPool pool = MakePool(8, 99);
  ContainmentBatchOptions explicit_serial;
  explicit_serial.jobs = 1;
  std::vector<LanguageContainmentResult> expected =
      CheckContainmentBatch(pool.jobs, explicit_serial);

  unsigned saved = DefaultParallelJobs();
  SetDefaultParallelJobs(4);
  std::vector<LanguageContainmentResult> got =
      CheckContainmentBatch(pool.jobs);  // options.jobs == 0
  SetDefaultParallelJobs(saved);

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].contained, expected[i].contained) << "pair " << i;
  }
}

TEST(BatchContainmentTest, BatchCountersTrackBatchesAndChecks) {
  NfaPool pool = MakePool(5, 3);
  obs::CounterDelta delta;
  ContainmentBatchOptions options;
  options.jobs = 2;
  CheckContainmentBatch(pool.jobs, options);
  EXPECT_EQ(delta.Delta("containment.batches"), 1u);
  EXPECT_EQ(delta.Delta("containment.batch_checks"), 5u);
  EXPECT_EQ(delta.Delta("containment.checks"), 5u);
}

TEST(BatchContainmentTest, PathBatchMatchesSerialPathChecks) {
  Alphabet alphabet;
  const char* pairs[][2] = {
      {"a b", "a (b | c)"},        // contained (one-way, lemma 1)
      {"a (b | c)", "a b"},        // refuted
      {"p", "p p- p"},             // 2RPQ, contained via fold pipeline
      {"p p- p", "p"},             // 2RPQ, refuted
      {"(a | b)*", "(a | b)* a?"}, // contained
  };
  std::vector<RegexPtr> owned;
  std::vector<PathContainmentJob> jobs;
  for (auto& pair : pairs) {
    for (const char* text : pair) {
      auto parsed = ParseRegex(text, &alphabet);
      ASSERT_TRUE(parsed.ok()) << text;
      owned.push_back(*parsed);
    }
    jobs.push_back({owned[owned.size() - 2].get(), owned.back().get()});
  }
  ContainmentBatchOptions serial;
  serial.jobs = 1;
  std::vector<PathContainmentResult> expected =
      CheckPathContainmentBatch(jobs, alphabet, serial);
  ContainmentBatchOptions parallel;
  parallel.jobs = 4;
  std::vector<PathContainmentResult> got =
      CheckPathContainmentBatch(jobs, alphabet, parallel);
  ASSERT_EQ(got.size(), 5u);
  bool expected_verdicts[] = {true, false, true, false, true};
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(expected[i].contained, expected_verdicts[i]) << "pair " << i;
    EXPECT_EQ(got[i].contained, expected[i].contained) << "pair " << i;
    EXPECT_EQ(got[i].used_fold_pipeline, expected[i].used_fold_pipeline);
  }
}

// Multiple batches running concurrently with the cache enabled: workers from
// different pools race on the same cache entries. ThreadSanitizer (ctest -L
// tsan) checks the synchronization; the verdict asserts check coherence.
TEST(BatchContainmentTest, ConcurrentBatchesShareTheCacheSafely) {
  cache::AutomataCache::Global().Clear();
  cache::AutomataCache::Global().SetEnabled(true);
  NfaPool pool = MakePool(16, 41);
  ContainmentBatchOptions serial;
  serial.jobs = 1;
  std::vector<LanguageContainmentResult> expected =
      CheckContainmentBatch(pool.jobs, serial);

  constexpr int kOuterThreads = 4;
  std::vector<int> failures(kOuterThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kOuterThreads; ++t) {
    threads.emplace_back([&, t] {
      ContainmentBatchOptions options;
      options.jobs = 3;
      for (int round = 0; round < 5; ++round) {
        std::vector<LanguageContainmentResult> got =
            CheckContainmentBatch(pool.jobs, options);
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].contained != expected[i].contained) ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  cache::AutomataCache::Global().SetEnabled(false);
  cache::AutomataCache::Global().Clear();
  for (int t = 0; t < kOuterThreads; ++t) EXPECT_EQ(failures[t], 0);
}

}  // namespace
}  // namespace rq
