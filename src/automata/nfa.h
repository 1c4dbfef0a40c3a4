// Nondeterministic finite automata over interned symbols.
//
// This is the workhorse representation of the paper's §3.2: regular
// expressions compile to NFAs (Thompson), and all containment pipelines run
// on NFAs via the classical constructions in automata/ops.h.
#ifndef RQ_AUTOMATA_NFA_H_
#define RQ_AUTOMATA_NFA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "common/status.h"

namespace rq {

struct NfaTransition {
  Symbol symbol;
  uint32_t to;

  friend bool operator==(const NfaTransition& a, const NfaTransition& b) {
    return a.symbol == b.symbol && a.to == b.to;
  }
};

// An NFA with optional epsilon transitions. States are dense 0..n-1.
class Nfa {
 public:
  // `num_symbols` fixes the symbol universe 0..num_symbols-1 (typically
  // alphabet.num_symbols() for Sigma±, or 2*k using only forward symbols).
  explicit Nfa(uint32_t num_symbols) : num_symbols_(num_symbols) {}

  uint32_t AddState() {
    transitions_.emplace_back();
    epsilons_.emplace_back();
    accepting_.push_back(false);
    return static_cast<uint32_t>(transitions_.size() - 1);
  }

  void AddTransition(uint32_t from, Symbol symbol, uint32_t to) {
    RQ_CHECK(from < num_states() && to < num_states());
    RQ_CHECK(symbol < num_symbols_);
    transitions_[from].push_back({symbol, to});
  }

  void AddEpsilon(uint32_t from, uint32_t to) {
    RQ_CHECK(from < num_states() && to < num_states());
    epsilons_[from].push_back(to);
  }

  void AddInitial(uint32_t state) {
    RQ_CHECK(state < num_states());
    initial_.push_back(state);
  }

  void SetAccepting(uint32_t state, bool accepting = true) {
    RQ_CHECK(state < num_states());
    accepting_[state] = accepting;
  }

  uint32_t num_states() const {
    return static_cast<uint32_t>(transitions_.size());
  }
  uint32_t num_symbols() const { return num_symbols_; }
  const std::vector<uint32_t>& initial() const { return initial_; }
  bool IsAccepting(uint32_t state) const { return accepting_[state]; }
  const std::vector<NfaTransition>& TransitionsFrom(uint32_t state) const {
    return transitions_[state];
  }
  const std::vector<uint32_t>& EpsilonsFrom(uint32_t state) const {
    return epsilons_[state];
  }

  bool HasEpsilons() const;
  size_t CountTransitions() const;

  // Epsilon closure of `states`, returned sorted and deduplicated.
  std::vector<uint32_t> EpsilonClosure(std::vector<uint32_t> states) const;

  // Set of states reachable from `states` (already closed) by `symbol`,
  // epsilon-closed, sorted, deduplicated.
  std::vector<uint32_t> Step(const std::vector<uint32_t>& states,
                             Symbol symbol) const;

  // Membership test by subset simulation.
  bool Accepts(const std::vector<Symbol>& word) const;

  // True if some accepting state is reachable from some initial state.
  // If nonempty and `witness` != nullptr, stores a shortest accepted word.
  bool IsEmptyLanguage(std::vector<Symbol>* witness = nullptr) const;

  // Equivalent epsilon-free NFA (same state set; epsilon edges folded into
  // symbol transitions and acceptance).
  Nfa WithoutEpsilons() const;

  // Accepts the reversed language.
  Nfa Reversed() const;

  // Drops states that are unreachable or cannot reach an accepting state.
  Nfa Trimmed() const;

  // Debug rendering (one transition per line).
  std::string ToString(const Alphabet& alphabet) const;

 private:
  uint32_t num_symbols_;
  std::vector<uint32_t> initial_;
  std::vector<bool> accepting_;
  std::vector<std::vector<NfaTransition>> transitions_;
  std::vector<std::vector<uint32_t>> epsilons_;
};

}  // namespace rq

#endif  // RQ_AUTOMATA_NFA_H_
