// Tests for the path-containment jobs (src/containment/batch.h) and the
// single-pair checkers on the shared pool (common/parallel.h): verdict
// equality between serial and parallel runs, each result at its job's
// index, the process-default worker count, and concurrent callers sharing
// the enabled cache (the `tsan` ctest label runs this binary under
// ThreadSanitizer).
#include "containment/batch.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "automata/alphabet.h"
#include "automata/containment.h"
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

// Path jobs over regexes the pool owns: pairs of fragments, one-way and
// two-way, half of them containments by construction (q1 ⊑ q1 | q2).
struct PathPool {
  Alphabet alphabet;
  std::vector<RegexPtr> regexes;
  std::vector<PathContainmentJob> jobs;
};

PathPool MakePathPool(int num_jobs, uint64_t seed) {
  const char* fragments[] = {
      "a (b | c)* d", "(a | b)* (c d)+", "a- b (c | d-)*",
      "((a b) | (c d))*", "a? b+ c* d", "p p- p", "p",
  };
  PathPool pool;
  std::vector<RegexPtr> parsed;
  for (const char* text : fragments) {
    parsed.push_back(ParseRegex(text, &pool.alphabet).value());
  }
  Rng rng(seed);
  for (int i = 0; i < num_jobs; ++i) {
    RegexPtr q1 = parsed[rng.Below(parsed.size())];
    RegexPtr q2 = parsed[rng.Below(parsed.size())];
    if (i % 2 == 0) q2 = Regex::Union({q1, q2});
    pool.regexes.push_back(q1);
    pool.regexes.push_back(q2);
    pool.jobs.push_back({q1.get(), q2.get()});
  }
  return pool;
}

// The batch with the process default at `workers` (restored after).
std::vector<PathContainmentResult> RunBatch(const PathPool& pool,
                                            unsigned workers) {
  const unsigned saved = DefaultParallelJobs();
  SetDefaultParallelJobs(workers);
  std::vector<PathContainmentResult> results =
      CheckPathContainmentBatch(pool.jobs, pool.alphabet);
  SetDefaultParallelJobs(saved);
  return results;
}

TEST(BatchContainmentTest, ParallelVerdictsMatchSerialForEveryAlgo) {
  constexpr size_t kPairs = 32;
  std::vector<Nfa> automata;
  Rng rng(17);
  for (size_t i = 0; i < 2 * kPairs; ++i) automata.push_back(RandomNfa(rng));
  using Checker = LanguageContainmentResult (*)(const Nfa&, const Nfa&);
  for (Checker check : {&CheckLanguageContainment,
                        &CheckLanguageContainmentAntichain,
                        &CheckLanguageContainmentExplicit}) {
    std::vector<LanguageContainmentResult> expected;
    for (size_t i = 0; i < kPairs; ++i) {
      expected.push_back(check(automata[2 * i], automata[2 * i + 1]));
    }
    for (unsigned jobs : {2u, 4u, 8u}) {
      std::vector<LanguageContainmentResult> got(kPairs);
      ParallelFor(kPairs, jobs, [&](size_t i) {
        got[i] = check(automata[2 * i], automata[2 * i + 1]);
      });
      for (size_t i = 0; i < kPairs; ++i) {
        const Nfa& a = automata[2 * i];
        const Nfa& b = automata[2 * i + 1];
        EXPECT_EQ(got[i].contained, expected[i].contained)
            << "jobs " << jobs << " pair " << i;
        if (!got[i].contained) {
          // Counterexamples may differ between runs only for the antichain
          // engine (not length-minimal); they must still separate.
          EXPECT_TRUE(a.Accepts(got[i].counterexample));
          EXPECT_FALSE(b.Accepts(got[i].counterexample));
        }
      }
    }
  }
}

TEST(BatchContainmentTest, ResultsLandAtTheirJobIndex) {
  // Self-containment jobs interleaved with an impossible one: the verdict
  // pattern pins each result to its index even under parallel scheduling.
  PathPool pool;
  RegexPtr a = ParseRegex("a", &pool.alphabet).value();
  RegexPtr b = ParseRegex("b", &pool.alphabet).value();
  for (int i = 0; i < 64; ++i) {
    pool.jobs.push_back({a.get(), i % 3 == 2 ? b.get() : a.get()});
  }
  std::vector<PathContainmentResult> results = RunBatch(pool, 8);
  ASSERT_EQ(results.size(), pool.jobs.size());
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(results[i].status.ok()) << "index " << i;
    EXPECT_EQ(results[i].contained, i % 3 != 2) << "index " << i;
  }
}

// The batch takes no worker count of its own: it runs at the process
// default, where a zero setting means serial. Both a zeroed default and a
// default of four give the single-pair verdicts.
TEST(BatchContainmentTest, ZeroJobsUsesProcessDefault) {
  PathPool pool = MakePathPool(8, 99);
  std::vector<PathContainmentResult> expected;
  for (const PathContainmentJob& job : pool.jobs) {
    expected.push_back(
        CheckPathQueryContainment(*job.q1, *job.q2, pool.alphabet));
  }

  const unsigned saved = DefaultParallelJobs();
  SetDefaultParallelJobs(0);
  EXPECT_EQ(DefaultParallelJobs(), 1u);
  SetDefaultParallelJobs(saved);
  for (unsigned workers : {0u, 4u}) {
    std::vector<PathContainmentResult> got = RunBatch(pool, workers);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].status.ok()) << "workers " << workers << " pair " << i;
      EXPECT_EQ(got[i].contained, expected[i].contained)
          << "workers " << workers << " pair " << i;
    }
  }
}

TEST(BatchContainmentTest, EveryJobCountsOneCheck) {
  PathPool pool;
  RegexPtr q1 = ParseRegex("a b", &pool.alphabet).value();
  RegexPtr q2 = ParseRegex("a (b | c)", &pool.alphabet).value();
  pool.jobs.assign(5, {q1.get(), q2.get()});
  obs::CounterDelta delta;
  RunBatch(pool, 2);
  EXPECT_EQ(delta.Delta("containment.checks"), 5u);
}

// The batch runs at the process default: one serial pass and one at four
// pool threads give the single-pair verdicts, methods and counterexamples.
TEST(BatchContainmentTest, PathBatchMatchesSerialPathChecks) {
  const char* pairs[][2] = {
      {"a b", "a (b | c)"},        // contained (one-way, lemma 1)
      {"a (b | c)", "a b"},        // refuted
      {"p", "p p- p"},             // 2RPQ, contained via fold pipeline
      {"p p- p", "p"},             // 2RPQ, refuted
      {"(a | b)*", "(a | b)* a?"}, // contained
  };
  PathPool pool;
  for (auto& pair : pairs) {
    for (const char* text : pair) {
      pool.regexes.push_back(ParseRegex(text, &pool.alphabet).value());
    }
    pool.jobs.push_back(
        {pool.regexes[pool.regexes.size() - 2].get(),
         pool.regexes.back().get()});
  }
  const bool expected_verdicts[] = {true, false, true, false, true};
  for (unsigned workers : {1u, 4u}) {
    std::vector<PathContainmentResult> got = RunBatch(pool, workers);
    ASSERT_EQ(got.size(), 5u);
    for (size_t i = 0; i < got.size(); ++i) {
      PathContainmentResult expected = CheckPathQueryContainment(
          *pool.jobs[i].q1, *pool.jobs[i].q2, pool.alphabet);
      EXPECT_EQ(expected.contained, expected_verdicts[i]) << "pair " << i;
      EXPECT_EQ(got[i].contained, expected.contained)
          << "workers " << workers << " pair " << i;
      EXPECT_EQ(got[i].used_fold_pipeline, expected.used_fold_pipeline);
      EXPECT_EQ(got[i].counterexample, expected.counterexample);
    }
  }
}

// Several callers running batches at once with the cache enabled: pool
// threads of different batches race on the same cache entries.
// ThreadSanitizer (ctest -L tsan) checks the synchronization; the verdict
// asserts check coherence.
TEST(BatchContainmentTest, ConcurrentBatchesShareTheCacheSafely) {
  cache::AutomataCache::Global().Clear();
  cache::AutomataCache::Global().SetEnabled(true);
  PathPool pool = MakePathPool(16, 41);
  std::vector<PathContainmentResult> expected = RunBatch(pool, 1);

  const unsigned saved = DefaultParallelJobs();
  SetDefaultParallelJobs(4);
  constexpr int kCallers = 4;
  std::vector<int> failures(kCallers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        std::vector<PathContainmentResult> got =
            CheckPathContainmentBatch(pool.jobs, pool.alphabet);
        for (size_t i = 0; i < got.size(); ++i) {
          if (!got[i].status.ok() ||
              got[i].contained != expected[i].contained) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  SetDefaultParallelJobs(saved);
  cache::AutomataCache::Global().SetEnabled(false);
  cache::AutomataCache::Global().Clear();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(failures[t], 0);
}

}  // namespace
}  // namespace rq
