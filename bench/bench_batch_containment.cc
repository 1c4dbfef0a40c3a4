// Benchmark for the automata cache (src/cache/) and the path-containment
// jobs on the shared pool (src/containment/batch.h, common/parallel.h): a
// repeated-subexpression workload — many containment pairs assembled from
// a small pool of shared regex fragments, the shape a stream of related
// containment requests has. The cache/jobs grid gives the headline
// comparison: cached at 4 pool threads versus uncached serial on identical
// pairs.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "automata/containment.h"
#include "cache/automata_cache.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "containment/batch.h"
#include "regex/regex.h"

namespace rq {
namespace {

struct Workload {
  Alphabet alphabet;
  std::vector<RegexPtr> owned;
  std::vector<PathContainmentJob> jobs;
};

// 24 pairs built from 6 fragments: every fragment appears in ~8 pairs, so a
// warm cache answers most compilations (and repeated pairs whole verdicts)
// from memory.
const Workload& SharedWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload();
    const char* fragments[] = {
        "a (b | c)* d",  "(a | b)* (c d)+", "a- b (c | d-)*",
        "((a b) | (c d))*", "a? b+ c* d", "(a | b | c | d)*",
    };
    std::vector<RegexPtr> pool;
    for (const char* text : fragments) {
      pool.push_back(ParseRegex(text, &w->alphabet).value());
    }
    Rng rng(20160626);
    for (int i = 0; i < 24; ++i) {
      const RegexPtr& base = pool[rng.Below(pool.size())];
      const RegexPtr& noise = pool[rng.Below(pool.size())];
      // Half the pairs are containments by construction (q1 ⊑ q1 | noise),
      // half are adversarial (q1 vs an unrelated fragment).
      RegexPtr q1 = base;
      RegexPtr q2 = (i % 2 == 0) ? Regex::Union({base, noise}) : noise;
      w->owned.push_back(q1);
      w->owned.push_back(q2);
      w->jobs.push_back({q1.get(), q2.get()});
    }
    return w;
  }();
  return *workload;
}

// Args: {cache on/off, jobs}. The cached configurations clear the cache once
// before timing, so the first iteration populates it and the steady state
// measures warm-cache throughput — the deployment profile for repeated
// query-workload analysis. The batch runs at the process-default worker
// count, set to `jobs` for the benchmark and restored after.
void BM_RepeatedSubexpressionBatch(benchmark::State& state) {
  const bool use_cache = state.range(0) != 0;
  const unsigned jobs = static_cast<unsigned>(state.range(1));
  const Workload& w = SharedWorkload();
  cache::AutomataCache& ac = cache::AutomataCache::Global();
  const bool was_enabled = ac.enabled();
  ac.Clear();
  ac.SetEnabled(use_cache);
  const unsigned saved_jobs = DefaultParallelJobs();
  SetDefaultParallelJobs(jobs);
  for (auto _ : state) {
    std::vector<PathContainmentResult> results =
        CheckPathContainmentBatch(w.jobs, w.alphabet);
    benchmark::DoNotOptimize(results.data());
  }
  SetDefaultParallelJobs(saved_jobs);
  state.counters["pairs/iter"] = static_cast<double>(w.jobs.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.jobs.size()));
  ac.SetEnabled(was_enabled);
}
BENCHMARK(BM_RepeatedSubexpressionBatch)
    ->ArgNames({"cache", "jobs"})
    ->Args({0, 1})   // baseline: uncached, serial
    ->Args({1, 1})   // cache only
    ->Args({0, 4})   // parallelism only
    ->Args({1, 2})
    ->Args({1, 4});  // headline: cached, 4 workers

// NFA-level pairs: the same pairs pre-compiled and run through
// CheckLanguageContainment on the pool, isolating the worker-pool and
// verdict-cache overheads from regex compilation.
void BM_NfaBatchVerdictCache(benchmark::State& state) {
  const bool use_cache = state.range(0) != 0;
  const unsigned jobs = static_cast<unsigned>(state.range(1));
  const Workload& w = SharedWorkload();
  static const std::vector<Nfa>* nfas = [] {
    auto* v = new std::vector<Nfa>();
    const Workload& wl = SharedWorkload();
    uint32_t k = static_cast<uint32_t>(wl.alphabet.num_symbols());
    for (const PathContainmentJob& job : wl.jobs) {
      v->push_back(job.q1->ToNfa(k).WithoutEpsilons());
      v->push_back(job.q2->ToNfa(k).WithoutEpsilons());
    }
    return v;
  }();
  cache::AutomataCache& ac = cache::AutomataCache::Global();
  const bool was_enabled = ac.enabled();
  ac.Clear();
  ac.SetEnabled(use_cache);
  for (auto _ : state) {
    std::vector<LanguageContainmentResult> results(w.jobs.size());
    ParallelFor(w.jobs.size(), jobs, [&results](size_t i) {
      results[i] =
          CheckLanguageContainment((*nfas)[2 * i], (*nfas)[2 * i + 1]);
    });
    benchmark::DoNotOptimize(results.data());
  }
  ac.SetEnabled(was_enabled);
}
BENCHMARK(BM_NfaBatchVerdictCache)
    ->ArgNames({"cache", "jobs"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 4});

}  // namespace
}  // namespace rq
