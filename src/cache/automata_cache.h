// Process-wide content-addressed memoization of the §3 pipeline's expensive
// constructions: regex→NFA compilation, epsilon elimination, the Lemma 3
// fold 2NFA, subset-construction complementation and whole containment
// verdicts. Keys are the canonical encodings of cache/key.h; stores are
// the byte-budgeted LRUs of cache/lru.h.
//
// The cache is DISABLED by default: every Cached* helper then falls through
// to a fresh construction, so default behavior (and every existing test) is
// bit-identical to the uncached code. rqcheck --cache and the bench harness
// opt in. Full design notes: docs/CACHING.md.
#ifndef RQ_CACHE_AUTOMATA_CACHE_H_
#define RQ_CACHE_AUTOMATA_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "automata/containment.h"
#include "automata/dfa.h"
#include "automata/nfa.h"
#include "cache/lru.h"
#include "regex/regex.h"
#include "twoway/two_nfa.h"

namespace rq {
namespace cache {

// One LRU store per construction kind, so a burst of one kind (say verdict
// entries) cannot evict another kind wholesale. kDefaultTotalBytes is split
// evenly across the kinds.
class AutomataCache {
 public:
  static AutomataCache& Global();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Clear();

  LruByteCache<Nfa>& thompson() { return thompson_; }
  LruByteCache<Nfa>& compiled() { return compiled_; }
  LruByteCache<Nfa>& epsfree() { return epsfree_; }
  LruByteCache<TwoNfa>& fold() { return fold_; }
  LruByteCache<Dfa>& complement() { return complement_; }
  LruByteCache<LanguageContainmentResult>& verdict() { return verdict_; }

  static constexpr size_t kDefaultTotalBytes = 64u << 20;
  static constexpr size_t kNumKinds = 6;

 private:
  AutomataCache();

  std::atomic<bool> enabled_{false};
  LruByteCache<Nfa> thompson_;
  LruByteCache<Nfa> compiled_;
  LruByteCache<Nfa> epsfree_;
  LruByteCache<TwoNfa> fold_;
  LruByteCache<Dfa> complement_;
  LruByteCache<LanguageContainmentResult> verdict_;
};

// Heap-footprint estimates used as the LRU byte charge.
size_t ApproxBytes(const Nfa& nfa);
size_t ApproxBytes(const TwoNfa& m);
size_t ApproxBytes(const Dfa& dfa);
size_t ApproxBytes(const LanguageContainmentResult& result);

// ---- Memoized constructions. Each consults the global cache when enabled
// and otherwise builds fresh; either way the result is immutable and
// shared, so callers can hold it across further cache traffic.

// Thompson construction (Regex::ToNfa).
std::shared_ptr<const Nfa> CachedRegexToNfa(const Regex& regex,
                                            uint32_t num_symbols);

// The fold pipeline's step 1: Thompson → epsilon-free → trimmed →
// simulation-reduced (pathquery/containment.cc).
std::shared_ptr<const Nfa> CachedCompiledNfa(const Regex& regex,
                                             uint32_t num_symbols);

// Epsilon elimination. When `nfa` is already epsilon-free the result is a
// non-owning alias of it, so `nfa` must outlive the returned pointer.
std::shared_ptr<const Nfa> CachedEpsilonFree(const Nfa& nfa);

// Lemma 3 fold 2NFA (twoway/fold.h).
std::shared_ptr<const TwoNfa> CachedFoldTwoNfa(const Nfa& nfa);

// Subset-construction complement DFA (automata/ops.h).
std::shared_ptr<const Dfa> CachedComplementToDfa(const Nfa& nfa);

// Key for a whole-containment-check verdict. `algo` tags the checker
// ("otf", "antichain", "explicit", "fold") because counterexample shapes
// and explored_states differ across algorithms.
std::string VerdictKey(const char* algo, const Nfa& a, const Nfa& b);

}  // namespace cache
}  // namespace rq

#endif  // RQ_CACHE_AUTOMATA_CACHE_H_
