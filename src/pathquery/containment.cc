#include "pathquery/containment.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "automata/containment.h"
#include "automata/nfa.h"
#include "automata/reduce.h"
#include "cache/automata_cache.h"
#include "cache/key.h"
#include "common/deadline.h"
#include "common/mem.h"
#include "graph/generators.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/subsystems.h"
#include "obs/trace.h"
#include "twoway/fold.h"
#include "twoway/tables.h"

namespace rq {

namespace {

uint32_t SymbolUniverse(const Regex& q1, const Regex& q2,
                        const Alphabet& alphabet) {
  uint32_t k = std::max({static_cast<uint32_t>(alphabet.num_symbols()),
                         q1.MinNumSymbols(), q2.MinNumSymbols()});
  // The fold machinery pairs every forward symbol with its inverse; keep the
  // universe even so InverseSymbol stays in range.
  return (k + 1) & ~1u;
}

PathContainmentResult CheckTwoWayContainmentImpl(const Regex& q1,
                                                 const Regex& q2,
                                                 const Alphabet& alphabet) {
  const uint32_t k = SymbolUniverse(q1, q2, alphabet);
  PathContainmentResult result;
  result.used_fold_pipeline = true;
  // The interned Shepherdson tables below are where the 2RPQ pipeline's
  // doubly exponential space actually lives; attribute it to the fold
  // pipeline so profiles and byte budgets see it.
  MemScope mem_scope(MemSubsystem::kFold);

  // Step 1: NFAs for both queries (linear), quotiented by simulation —
  // the fold 2NFA's state count is n·(|Σ±|+1) in a2's n, so shrinking a2
  // shrinks everything downstream. Both compilations and the fold are
  // memoized when the automata cache is on (docs/CACHING.md).
  std::shared_ptr<const Nfa> a1_ptr = cache::CachedCompiledNfa(q1, k);
  std::shared_ptr<const Nfa> a2_ptr = cache::CachedCompiledNfa(q2, k);
  const Nfa& a1 = *a1_ptr;
  // Step 2: 2NFA for fold(L(Q2)) (Lemma 3, polynomial). FoldTwoNfa stops
  // early when the context trips; the poll below discards the truncation.
  std::shared_ptr<const TwoNfa> fold2_ptr = cache::CachedFoldTwoNfa(*a2_ptr);
  if (Status s = CheckExecContext(); !s.ok()) {
    result.status = std::move(s);
    return result;
  }
  const TwoNfa& fold2 = *fold2_ptr;
  // Steps 3-5: search L(Q1) ∩ complement(fold(L(Q2))) on the fly. The
  // complement side is represented by deterministic Shepherdson tables, so
  // each product node has one successor per symbol on the right side.
  TwoNfaSimulator sim(fold2);

  std::unordered_map<TwoNfaTable, uint32_t, TwoNfaTableHash> table_ids;
  std::vector<TwoNfaTable> tables;
  std::vector<bool> table_accepts;
  auto intern_table = [&](TwoNfaTable table) {
    auto it = table_ids.find(table);
    if (it != table_ids.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(tables.size());
    // Two copies per interned table: the map key and the tables slot.
    MemCharge(static_cast<int64_t>(2 * ApproxTableBytes(table) +
                                   sizeof(TwoNfaTable) + sizeof(uint32_t)));
    table_ids.emplace(table, id);
    table_accepts.push_back(sim.Accepts(table));
    tables.push_back(std::move(table));
    return id;
  };

  struct Node {
    uint32_t a_state;
    uint32_t table_id;
    uint32_t parent;
    Symbol via;
  };
  std::vector<Node> nodes;
  std::unordered_map<uint64_t, uint32_t> seen;
  std::deque<uint32_t> work;
  auto push = [&](uint32_t a_state, uint32_t table_id, uint32_t parent,
                  Symbol via) {
    uint64_t key = (static_cast<uint64_t>(a_state) << 32) | table_id;
    if (seen.contains(key)) return;
    MemCharge(static_cast<int64_t>(sizeof(Node) + sizeof(uint64_t) +
                                   2 * sizeof(uint32_t)));
    seen.emplace(key, static_cast<uint32_t>(nodes.size()));
    nodes.push_back({a_state, table_id, parent, via});
    work.push_back(static_cast<uint32_t>(nodes.size() - 1));
  };

  uint32_t t0 = intern_table(sim.InitialTable());
  for (uint32_t s : a1.initial()) push(s, t0, 0xffffffffu, kInvalidSymbol);

  while (!work.empty()) {
    // The table product is the EXPSPACE pressure point (doubly exponential
    // table space); poll per node so adversarial inputs time out promptly.
    if (Status s = CheckExecContext(); !s.ok()) {
      result.status = std::move(s);
      return result;
    }
    uint32_t idx = work.front();
    work.pop_front();
    Node node = nodes[idx];
    ++result.explored_states;
    if (a1.IsAccepting(node.a_state) && !table_accepts[node.table_id]) {
      // Counterexample: word in L(Q1) \ fold(L(Q2)).
      std::vector<Symbol> word;
      for (uint32_t i = idx; i != 0xffffffffu; i = nodes[i].parent) {
        if (nodes[i].via != kInvalidSymbol) word.push_back(nodes[i].via);
      }
      std::reverse(word.begin(), word.end());
      result.contained = false;
      result.counterexample = std::move(word);
      return result;
    }
    // Group A1 transitions by symbol so we step the table once per symbol.
    const auto& trans = a1.TransitionsFrom(node.a_state);
    for (size_t i = 0; i < trans.size();) {
      Symbol symbol = trans[i].symbol;
      uint32_t next_table =
          intern_table(sim.Step(tables[node.table_id], symbol));
      for (; i < trans.size() && trans[i].symbol == symbol; ++i) {
        push(trans[i].to, next_table, idx, symbol);
      }
    }
  }
  result.contained = true;
  return result;
}

}  // namespace

PathContainmentResult CheckTwoWayContainment(const Regex& q1, const Regex& q2,
                                             const Alphabet& alphabet) {
  // Whole-pipeline verdict memoization: the fold verdict is keyed on both
  // regexes plus the symbol universe and stored in the shared verdict LRU
  // under the "fold" tag. On a hit only cache.* counters move.
  cache::AutomataCache& ac = cache::AutomataCache::Global();
  std::string key;
  if (ac.enabled()) {
    key = "fold|";
    cache::AppendU32(SymbolUniverse(q1, q2, alphabet), &key);
    cache::AppendEncoding(q1, &key);
    cache::AppendEncoding(q2, &key);
    if (auto hit = ac.verdict().Get(key)) {
      PathContainmentResult result;
      result.contained = hit->contained;
      result.counterexample = hit->counterexample;
      result.explored_states = hit->explored_states;
      result.used_fold_pipeline = true;
      return result;
    }
  }
  // The fold-pipeline product search shares the containment.* vocabulary
  // with the one-way checkers (docs/OBSERVABILITY.md).
  RQ_TRACE_SPAN_VAR(span, "containment.fold_pipeline");
  PathContainmentResult result = CheckTwoWayContainmentImpl(q1, q2, alphabet);
  obs::ContainmentCounters& counters = obs::ContainmentCounters::Get();
  counters.checks.Increment();
  counters.states_explored.Add(result.explored_states);
  counters.states_explored_per_check.Record(result.explored_states);
  if (!result.contained) counters.refuted.Increment();
  span.AddAttr("states_explored", result.explored_states);
  // A check cut short by deadline/cancellation produced no verdict; never
  // memoize it.
  if (ac.enabled() && result.status.ok()) {
    LanguageContainmentResult stored;
    stored.contained = result.contained;
    stored.counterexample = result.counterexample;
    stored.explored_states = result.explored_states;
    size_t bytes = cache::ApproxBytes(stored);
    ac.verdict().Put(std::move(key), std::move(stored), bytes);
  }
  return result;
}

PathContainmentResult CheckPathQueryContainment(const Regex& q1,
                                                const Regex& q2,
                                                const Alphabet& alphabet) {
  obs::FlightTimer timer(obs::QueryKind::kPathContainment);
  PathContainmentResult result;
  if (!q1.UsesInverse() && !q2.UsesInverse()) {
    // Lemma 1: plain language containment (memoized compilations; the
    // verdict itself is memoized inside CheckLanguageContainment).
    const uint32_t k = SymbolUniverse(q1, q2, alphabet);
    LanguageContainmentResult lang = CheckLanguageContainment(
        *cache::CachedRegexToNfa(q1, k), *cache::CachedRegexToNfa(q2, k));
    result.contained = lang.contained;
    result.counterexample = std::move(lang.counterexample);
    result.explored_states = lang.explored_states;
    result.used_fold_pipeline = false;
    result.status = std::move(lang.status);
  } else {
    result = CheckTwoWayContainment(q1, q2, alphabet);
  }
  if (obs::QueryProfile* profile = obs::CurrentProfile()) {
    profile->AddNote("path.pipeline",
                     result.used_fold_pipeline ? "2rpq-fold" : "lemma1");
  }
  timer.Finish(!result.status.ok()
                   ? obs::FlightVerdictFromError(result.status)
                   : (result.contained ? obs::kFlightVerdictOk
                                       : obs::kFlightVerdictRefuted),
               result.explored_states);
  return result;
}

SemipathWitness BuildSemipathWitness(const Alphabet& alphabet,
                                     const std::vector<Symbol>& word) {
  SemipathWitness witness;
  // Copy the labels into the witness database's own alphabet, preserving
  // label ids so the word's symbols remain valid.
  for (uint32_t label = 0; label < alphabet.num_labels(); ++label) {
    witness.db.alphabet().InternLabel(alphabet.LabelName(label));
  }
  SemipathEndpoints ends = AppendSemipath(&witness.db, word);
  witness.start = ends.start;
  witness.end = ends.end;
  return witness;
}

}  // namespace rq
