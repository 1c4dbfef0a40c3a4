// Shepherdson behavior tables: a deterministic one-way view of a 2NFA.
//
// After reading a prefix p of the input, all future behavior of a 2NFA on
// the tape ⊢p… is captured by a table:
//   * init    — the states in which the automaton can exit ⊢p to the right
//               when started from its initial configuration, and
//   * back[s] — the states in which it can exit ⊢p to the right when it
//               enters from the right boundary in state s (moving left).
// Tables compose letter by letter, giving a (lazily explored) deterministic
// automaton equivalent to the 2NFA, with at most 2^(n²+n) states. This is
// the practical engine behind our 2RPQ containment pipeline (Theorem 5): it
// avoids materializing the Lemma 4 complement while staying exact.
#ifndef RQ_TWOWAY_TABLES_H_
#define RQ_TWOWAY_TABLES_H_

#include <cstdint>
#include <vector>

#include "automata/dfa.h"
#include "common/bitset.h"
#include "common/status.h"
#include "twoway/two_nfa.h"

namespace rq {

struct TwoNfaTable {
  Bitset init;
  std::vector<Bitset> back;

  size_t Hash() const;
  friend bool operator==(const TwoNfaTable& a, const TwoNfaTable& b) {
    return a.init == b.init && a.back == b.back;
  }
};

struct TwoNfaTableHash {
  size_t operator()(const TwoNfaTable& t) const { return t.Hash(); }
};

// Heap bytes held by one table: (num_states + 1) bitsets of
// ceil(num_states/64) words each, plus the back-vector spine. Used to
// charge table interning against the thread's ExecContext — the table
// space is the 2^(n²+n) blowup of the 2RPQ pipeline, so this is where
// byte budgets must bite.
size_t ApproxTableBytes(const TwoNfaTable& table);

// Computes table transitions for a fixed 2NFA. Holds a copy of the 2NFA's
// transition relation indexed by tape symbol for fast closures.
class TwoNfaSimulator {
 public:
  explicit TwoNfaSimulator(const TwoNfa& m);

  // Table of the empty prefix (tape ⊢ only).
  TwoNfaTable InitialTable() const;

  // Table after appending regular symbol `a` to the prefix.
  TwoNfaTable Step(const TwoNfaTable& table, Symbol a) const;

  // True if the word whose prefix-table is `table` is accepted (closure over
  // the right marker reaches an accepting state).
  bool Accepts(const TwoNfaTable& table) const;

  // Membership via tables (cross-validation against TwoNfa::Accepts).
  bool AcceptsWord(const std::vector<Symbol>& word) const;

  uint32_t num_states() const { return num_states_; }
  uint32_t num_symbols() const { return num_symbols_; }

 private:
  struct Arrow {
    uint32_t to;
    Dir dir;
  };

  // Closure of `seed` within a cell carrying `tape_symbol`, where left moves
  // re-enter the prefix summarized by `back` (nullptr: left moves die).
  // Returns the set of states co-located in the cell; `exits` collects the
  // states exiting right.
  Bitset CellClosure(const Bitset& seed, Symbol tape_symbol,
                     const std::vector<Bitset>* back, Bitset* exits) const;

  uint32_t num_states_;
  uint32_t num_symbols_;
  Bitset accepting_;
  Bitset initial_;
  // Transitions indexed by [tape symbol][source state].
  std::vector<std::vector<std::vector<Arrow>>> by_symbol_from_;
};

// Materializes the deterministic table automaton as a complete DFA over the
// 2NFA's regular symbols. Errors with ResourceExhausted if more than
// `max_states` tables are reachable. This is the "naive route" baseline of
// Lemma 4's discussion (2NFA → one-way automaton, exponential).
Result<Dfa> MaterializeTableDfa(const TwoNfa& m, size_t max_states);

}  // namespace rq

#endif  // RQ_TWOWAY_TABLES_H_
