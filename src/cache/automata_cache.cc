#include "cache/automata_cache.h"

#include <utility>

#include "automata/ops.h"
#include "automata/reduce.h"
#include "cache/key.h"
#include "common/deadline.h"
#include "twoway/fold.h"

namespace rq {
namespace cache {

namespace {

constexpr size_t PerKindBudget(size_t total) {
  return total / AutomataCache::kNumKinds;
}

// Non-owning view for inputs that are already in the target form (e.g. an
// epsilon-free NFA passed to CachedEpsilonFree). The caller guarantees the
// referent outlives the pointer.
std::shared_ptr<const Nfa> AliasOf(const Nfa& nfa) {
  return std::shared_ptr<const Nfa>(std::shared_ptr<const Nfa>(), &nfa);
}

std::shared_ptr<const Nfa> Own(Nfa nfa) {
  return std::make_shared<const Nfa>(std::move(nfa));
}

}  // namespace

AutomataCache::AutomataCache()
    : thompson_("nfa", PerKindBudget(kDefaultTotalBytes)),
      compiled_("compiled", PerKindBudget(kDefaultTotalBytes)),
      epsfree_("epsfree", PerKindBudget(kDefaultTotalBytes)),
      fold_("fold", PerKindBudget(kDefaultTotalBytes)),
      complement_("complement", PerKindBudget(kDefaultTotalBytes)),
      verdict_("verdict", PerKindBudget(kDefaultTotalBytes)) {}

AutomataCache& AutomataCache::Global() {
  static AutomataCache* instance = new AutomataCache();
  return *instance;
}

void AutomataCache::Clear() {
  thompson_.Clear();
  compiled_.Clear();
  epsfree_.Clear();
  fold_.Clear();
  complement_.Clear();
  verdict_.Clear();
}

size_t ApproxBytes(const Nfa& nfa) {
  // Per state: three vector headers plus the accepting bit; per transition
  // {symbol, to}: 8 bytes; per epsilon edge: 4.
  size_t per_state = 3 * sizeof(void*) * 3 + 8;
  size_t epsilons = 0;
  for (uint32_t s = 0; s < nfa.num_states(); ++s) {
    epsilons += nfa.EpsilonsFrom(s).size();
  }
  return sizeof(Nfa) + nfa.num_states() * per_state +
         nfa.CountTransitions() * sizeof(NfaTransition) + epsilons * 4 +
         nfa.initial().size() * 4;
}

size_t ApproxBytes(const TwoNfa& m) {
  size_t per_state = 3 * sizeof(void*) + 8;
  return sizeof(TwoNfa) + m.num_states() * per_state +
         m.CountTransitions() * sizeof(TwoNfaTransition) +
         m.initial().size() * 4;
}

size_t ApproxBytes(const Dfa& dfa) {
  return sizeof(Dfa) +
         static_cast<size_t>(dfa.num_states()) * dfa.num_symbols() * 4 +
         dfa.num_states() / 8;
}

size_t ApproxBytes(const LanguageContainmentResult& result) {
  return sizeof(LanguageContainmentResult) +
         result.counterexample.size() * sizeof(Symbol);
}

std::shared_ptr<const Nfa> CachedRegexToNfa(const Regex& regex,
                                            uint32_t num_symbols) {
  AutomataCache& cache = AutomataCache::Global();
  if (!cache.enabled()) return Own(regex.ToNfa(num_symbols));
  std::string key;
  AppendU32(num_symbols, &key);
  AppendEncoding(regex, &key);
  if (auto hit = cache.thompson().Get(key)) return hit;
  Nfa nfa = regex.ToNfa(num_symbols);
  size_t bytes = ApproxBytes(nfa);
  return cache.thompson().Put(std::move(key), std::move(nfa), bytes);
}

std::shared_ptr<const Nfa> CachedCompiledNfa(const Regex& regex,
                                             uint32_t num_symbols) {
  AutomataCache& cache = AutomataCache::Global();
  auto build = [&] {
    return ReduceBySimulation(
        regex.ToNfa(num_symbols).WithoutEpsilons().Trimmed());
  };
  if (!cache.enabled()) return Own(build());
  std::string key;
  AppendU32(num_symbols, &key);
  AppendEncoding(regex, &key);
  if (auto hit = cache.compiled().Get(key)) return hit;
  Nfa nfa = build();
  size_t bytes = ApproxBytes(nfa);
  return cache.compiled().Put(std::move(key), std::move(nfa), bytes);
}

std::shared_ptr<const Nfa> CachedEpsilonFree(const Nfa& nfa) {
  if (!nfa.HasEpsilons()) return AliasOf(nfa);
  AutomataCache& cache = AutomataCache::Global();
  if (!cache.enabled()) return Own(nfa.WithoutEpsilons());
  std::string key = Encode(nfa);
  if (auto hit = cache.epsfree().Get(key)) return hit;
  Nfa out = nfa.WithoutEpsilons();
  size_t bytes = ApproxBytes(out);
  return cache.epsfree().Put(std::move(key), std::move(out), bytes);
}

std::shared_ptr<const TwoNfa> CachedFoldTwoNfa(const Nfa& nfa) {
  AutomataCache& cache = AutomataCache::Global();
  if (!cache.enabled()) {
    return std::make_shared<const TwoNfa>(FoldTwoNfa(nfa));
  }
  std::string key = Encode(nfa);
  if (auto hit = cache.fold().Get(key)) return hit;
  TwoNfa fold = FoldTwoNfa(nfa);
  // A construction cut short by deadline/cancellation is truncated; hand
  // it back (the caller polls the context and discards it) but never let
  // it into the cache under the full automaton's key.
  if (ExecStopRequested()) {
    return std::make_shared<const TwoNfa>(std::move(fold));
  }
  size_t bytes = ApproxBytes(fold);
  return cache.fold().Put(std::move(key), std::move(fold), bytes);
}

std::shared_ptr<const Dfa> CachedComplementToDfa(const Nfa& nfa) {
  AutomataCache& cache = AutomataCache::Global();
  if (!cache.enabled()) {
    return std::make_shared<const Dfa>(ComplementToDfa(nfa));
  }
  std::string key = Encode(nfa);
  if (auto hit = cache.complement().Get(key)) return hit;
  Dfa dfa = ComplementToDfa(nfa);
  if (ExecStopRequested()) {
    return std::make_shared<const Dfa>(std::move(dfa));
  }
  size_t bytes = ApproxBytes(dfa);
  return cache.complement().Put(std::move(key), std::move(dfa), bytes);
}

std::string VerdictKey(const char* algo, const Nfa& a, const Nfa& b) {
  std::string key = algo;
  key.push_back('|');
  AppendEncoding(a, &key);
  AppendEncoding(b, &key);
  return key;
}

}  // namespace cache
}  // namespace rq
