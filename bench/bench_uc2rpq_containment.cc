// E8 (§3.3, Theorem 6): UC2RPQ containment. The exact problem is
// EXPSPACE-complete; this harness measures (a) the chain collapse, which
// decides a pair of unions of chains as one 2RPQ pair by Theorem 5's fold,
// on the shape rqbench's analyze workload sends (a two-atom chain against
// one atom), (b) the exact expansion procedure on finite-language queries
// as atom count grows, and (c) the bounded search on infinite languages as
// the word bound grows. In (b) and (c) q1 carries the side atom (a)(x, w),
// which keeps the pair off the collapse.
#include <benchmark/benchmark.h>

#include "cache/automata_cache.h"
#include "common/rng.h"
#include "crpq/crpq.h"

namespace rq {
namespace {

// A two-atom chain against one atom, analyze's planted shape, with
// infinite atom languages (the expansion search could only bound it).
// With the automata cache on, as in rqserved: cached:0 clears it each
// iteration, so every check is the pair's first; cached:1 repeats a check
// whose verdict is cached.
void BM_ChainCollapse(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  Alphabet alphabet;
  auto q1 = ParseUc2Rpq("q(x, y) :- (knows+)(x, z), (member- *)(z, y)",
                        &alphabet);
  auto q2 = ParseUc2Rpq("q(x, y) :- (knows+ member- *)(x, y)", &alphabet);
  RQ_CHECK(q1.ok() && q2.ok());
  cache::AutomataCache& ac = cache::AutomataCache::Global();
  ac.SetEnabled(true);
  ac.Clear();
  for (auto _ : state) {
    if (!cached) ac.Clear();
    auto result = CheckUc2RpqContainment(*q1, *q2, alphabet);
    benchmark::DoNotOptimize(result.ok());
    RQ_CHECK(result.ok() && result->certainty == Certainty::kProved);
  }
  ac.Clear();
  ac.SetEnabled(false);
}
BENCHMARK(BM_ChainCollapse)->ArgName("cached")->Arg(0)->Arg(1);

// Finite-language conjunctive queries: exact expansion test, atom sweep.
void BM_FiniteLanguageExactAtomSweep(benchmark::State& state) {
  const size_t atoms = static_cast<size_t>(state.range(0));
  Alphabet alphabet;
  alphabet.InternLabel("a");
  alphabet.InternLabel("b");
  Rng rng(atoms * 17 + 1);
  // Chain query with small finite languages per atom; q1 also has the
  // side atom (a)(x, w).
  auto make_query = [&](Rng& r, bool side) {
    Crpq q;
    q.num_vars = static_cast<uint32_t>(atoms + 2);
    q.head = {0, static_cast<VarId>(atoms)};
    for (size_t i = 0; i < atoms; ++i) {
      const char* options[] = {"a", "b", "a b", "a | b", "a b-", "b?"};
      RegexPtr re =
          ParseRegex(options[r.Below(6)], &alphabet).value();
      q.atoms.push_back(
          {re, static_cast<VarId>(i), static_cast<VarId>(i + 1)});
    }
    if (side) {
      q.atoms.push_back({ParseRegex("a", &alphabet).value(), 0,
                         static_cast<VarId>(atoms + 1)});
    }
    Uc2Rpq u;
    u.disjuncts.push_back(std::move(q));
    return u;
  };
  uint64_t expansions = 0;
  uint64_t checks = 0;
  for (auto _ : state) {
    Uc2Rpq q1 = make_query(rng, /*side=*/true);
    Uc2Rpq q2 = make_query(rng, /*side=*/false);
    auto result = CheckUc2RpqContainment(q1, q2, alphabet);
    benchmark::DoNotOptimize(result.ok());
    RQ_CHECK(result.ok() && result->method.starts_with("expansion"));
    expansions += result->expansions_checked;
    ++checks;
  }
  state.counters["expansions/check"] =
      static_cast<double>(expansions) / static_cast<double>(checks);
}
BENCHMARK(BM_FiniteLanguageExactAtomSweep)->DenseRange(1, 6);

// Bounded search on infinite languages: cost vs word-length bound.
void BM_BoundedSearchWordLengthSweep(benchmark::State& state) {
  const size_t max_len = static_cast<size_t>(state.range(0));
  Alphabet alphabet;
  auto q1 = ParseUc2Rpq(
      "q(x, y) :- (a+)(x, z), (b+)(z, y), (a)(x, w)\n"
      "q(x, y) :- (b+)(x, z), (a+)(z, y), (a)(x, w)",
      &alphabet);
  auto q2 = ParseUc2Rpq("q(x, y) :- ((a | b)+)(x, y)", &alphabet);
  RQ_CHECK(q1.ok() && q2.ok());
  CrpqContainmentOptions options;
  options.max_word_length = max_len;
  uint64_t expansions = 0;
  uint64_t iterations = 0;
  for (auto _ : state) {
    auto result = CheckUc2RpqContainment(*q1, *q2, alphabet, options);
    benchmark::DoNotOptimize(result.ok());
    RQ_CHECK(result.ok() && result->method.starts_with("expansion"));
    expansions += result->expansions_checked;
    ++iterations;
  }
  state.counters["expansions/check"] =
      static_cast<double>(expansions) / static_cast<double>(iterations);
}
BENCHMARK(BM_BoundedSearchWordLengthSweep)->DenseRange(1, 6);

// Paper Example 1: the triangle pattern vs its cyclic variant.
void BM_PaperExampleOneUnion(benchmark::State& state) {
  Alphabet alphabet;
  auto q1 = ParseUc2Rpq("q(x, y) :- (r)(x, y), (r)(x, z), (r)(y, z)",
                        &alphabet);
  auto q2 = ParseUc2Rpq(
      "q(x, y) :- (r)(x, y), (r)(x, z), (r)(y, z)\n"
      "q(x, y) :- (r)(x, y), (r)(y, z), (r)(z, x)",
      &alphabet);
  RQ_CHECK(q1.ok() && q2.ok());
  for (auto _ : state) {
    auto result = CheckUc2RpqContainment(*q1, *q2, alphabet);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_PaperExampleOneUnion);

}  // namespace
}  // namespace rq

