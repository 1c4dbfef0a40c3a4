#include "automata/nfa.h"

#include <algorithm>
#include <deque>
#include <queue>

namespace rq {

bool Nfa::HasEpsilons() const {
  for (const auto& eps : epsilons_) {
    if (!eps.empty()) return true;
  }
  return false;
}

size_t Nfa::CountTransitions() const {
  size_t n = 0;
  for (const auto& t : transitions_) n += t.size();
  for (const auto& e : epsilons_) n += e.size();
  return n;
}

std::vector<uint32_t> Nfa::EpsilonClosure(std::vector<uint32_t> states) const {
  std::vector<bool> seen(num_states(), false);
  std::deque<uint32_t> work;
  for (uint32_t s : states) {
    if (!seen[s]) {
      seen[s] = true;
      work.push_back(s);
    }
  }
  std::vector<uint32_t> out;
  while (!work.empty()) {
    uint32_t s = work.front();
    work.pop_front();
    out.push_back(s);
    for (uint32_t t : epsilons_[s]) {
      if (!seen[t]) {
        seen[t] = true;
        work.push_back(t);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint32_t> Nfa::Step(const std::vector<uint32_t>& states,
                                Symbol symbol) const {
  std::vector<uint32_t> next;
  for (uint32_t s : states) {
    for (const NfaTransition& t : transitions_[s]) {
      if (t.symbol == symbol) next.push_back(t.to);
    }
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  return EpsilonClosure(std::move(next));
}

bool Nfa::Accepts(const std::vector<Symbol>& word) const {
  std::vector<uint32_t> current = EpsilonClosure(initial_);
  for (Symbol symbol : word) {
    if (current.empty()) return false;
    current = Step(current, symbol);
  }
  for (uint32_t s : current) {
    if (accepting_[s]) return true;
  }
  return false;
}

bool Nfa::IsEmptyLanguage(std::vector<Symbol>* witness) const {
  // BFS over single states; epsilon edges are zero-cost moves, so plain BFS
  // with epsilon edges treated like symbol edges still finds a shortest
  // accepted word if we track word length separately via 0/1 BFS.
  struct Item {
    uint32_t state;
    uint32_t parent;    // index into `items`, or UINT32_MAX
    Symbol via;         // kInvalidSymbol for epsilon / roots
  };
  std::vector<Item> items;
  std::vector<bool> seen(num_states(), false);
  std::deque<uint32_t> work;  // indices into items; 0-1 BFS deque
  for (uint32_t s : initial_) {
    if (!seen[s]) {
      seen[s] = true;
      items.push_back({s, 0xffffffffu, kInvalidSymbol});
      work.push_back(static_cast<uint32_t>(items.size() - 1));
    }
  }
  while (!work.empty()) {
    uint32_t idx = work.front();
    work.pop_front();
    uint32_t s = items[idx].state;
    if (accepting_[s]) {
      if (witness != nullptr) {
        std::vector<Symbol> word;
        for (uint32_t i = idx; i != 0xffffffffu; i = items[i].parent) {
          if (items[i].via != kInvalidSymbol) word.push_back(items[i].via);
        }
        std::reverse(word.begin(), word.end());
        *witness = std::move(word);
      }
      return false;
    }
    for (uint32_t t : epsilons_[s]) {
      if (!seen[t]) {
        seen[t] = true;
        items.push_back({t, idx, kInvalidSymbol});
        work.push_front(static_cast<uint32_t>(items.size() - 1));
      }
    }
    for (const NfaTransition& tr : transitions_[s]) {
      if (!seen[tr.to]) {
        seen[tr.to] = true;
        items.push_back({tr.to, idx, tr.symbol});
        work.push_back(static_cast<uint32_t>(items.size() - 1));
      }
    }
  }
  return true;
}

Nfa Nfa::WithoutEpsilons() const {
  Nfa out(num_symbols_);
  for (uint32_t s = 0; s < num_states(); ++s) out.AddState();
  for (uint32_t s = 0; s < num_states(); ++s) {
    std::vector<uint32_t> closure = EpsilonClosure({s});
    bool accepting = false;
    std::vector<NfaTransition> merged;
    for (uint32_t c : closure) {
      accepting = accepting || accepting_[c];
      for (const NfaTransition& t : transitions_[c]) merged.push_back(t);
    }
    std::sort(merged.begin(), merged.end(),
              [](const NfaTransition& a, const NfaTransition& b) {
                return a.symbol != b.symbol ? a.symbol < b.symbol
                                            : a.to < b.to;
              });
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    out.SetAccepting(s, accepting);
    for (const NfaTransition& t : merged) {
      out.AddTransition(s, t.symbol, t.to);
    }
  }
  for (uint32_t s : initial_) out.AddInitial(s);
  return out;
}

Nfa Nfa::Reversed() const {
  Nfa out(num_symbols_);
  for (uint32_t s = 0; s < num_states(); ++s) out.AddState();
  for (uint32_t s = 0; s < num_states(); ++s) {
    for (const NfaTransition& t : transitions_[s]) {
      out.AddTransition(t.to, t.symbol, s);
    }
    for (uint32_t t : epsilons_[s]) out.AddEpsilon(t, s);
    if (accepting_[s]) out.AddInitial(s);
  }
  for (uint32_t s : initial_) out.SetAccepting(s);
  return out;
}

Nfa Nfa::Trimmed() const {
  const uint32_t n = num_states();
  // Each state's predecessors over symbols and epsilons in one array, so
  // the backward search needs no reversed automaton (the kernel trims
  // every regex it compiles, down to the canonical graphs of containment).
  std::vector<uint32_t> first(n + 1, 0);
  for (uint32_t s = 0; s < n; ++s) {
    for (const NfaTransition& t : transitions_[s]) ++first[t.to + 1];
    for (uint32_t t : epsilons_[s]) ++first[t + 1];
  }
  for (uint32_t s = 0; s < n; ++s) first[s + 1] += first[s];
  std::vector<uint32_t> pred(first[n]);
  {
    std::vector<uint32_t> fill(first.begin(), first.end() - 1);
    for (uint32_t s = 0; s < n; ++s) {
      for (const NfaTransition& t : transitions_[s]) pred[fill[t.to]++] = s;
      for (uint32_t t : epsilons_[s]) pred[fill[t]++] = s;
    }
  }
  // Reachable from an initial state, then, among those, reaching an
  // accepting state: every state on such a path is reachable too.
  std::vector<bool> reachable(n, false);
  std::vector<bool> keep(n, false);
  std::vector<uint32_t> stack;
  auto push = [&](std::vector<bool>& seen, uint32_t s) {
    if (!seen[s]) {
      seen[s] = true;
      stack.push_back(s);
    }
  };
  for (uint32_t s : initial_) push(reachable, s);
  while (!stack.empty()) {
    const uint32_t s = stack.back();
    stack.pop_back();
    for (const NfaTransition& t : transitions_[s]) push(reachable, t.to);
    for (uint32_t t : epsilons_[s]) push(reachable, t);
  }
  for (uint32_t s = 0; s < n; ++s) {
    if (accepting_[s] && reachable[s]) push(keep, s);
  }
  while (!stack.empty()) {
    const uint32_t s = stack.back();
    stack.pop_back();
    for (uint32_t i = first[s]; i < first[s + 1]; ++i) {
      if (reachable[pred[i]]) push(keep, pred[i]);
    }
  }
  std::vector<uint32_t> remap(num_states(), 0xffffffffu);
  Nfa out(num_symbols_);
  for (uint32_t s = 0; s < num_states(); ++s) {
    if (keep[s]) remap[s] = out.AddState();
  }
  // Keep at least one state so callers always have a valid (empty) NFA.
  if (out.num_states() == 0) {
    uint32_t s = out.AddState();
    out.AddInitial(s);
    return out;
  }
  for (uint32_t s = 0; s < num_states(); ++s) {
    if (!keep[s]) continue;
    out.SetAccepting(remap[s], accepting_[s]);
    for (const NfaTransition& t : transitions_[s]) {
      if (keep[t.to]) out.AddTransition(remap[s], t.symbol, remap[t.to]);
    }
    for (uint32_t t : epsilons_[s]) {
      if (keep[t]) out.AddEpsilon(remap[s], remap[t]);
    }
  }
  for (uint32_t s : initial_) {
    if (keep[s]) out.AddInitial(remap[s]);
  }
  return out;
}

std::string Nfa::ToString(const Alphabet& alphabet) const {
  std::string out = "NFA states=" + std::to_string(num_states()) + "\n";
  out += "initial:";
  for (uint32_t s : initial_) out += " " + std::to_string(s);
  out += "\naccepting:";
  for (uint32_t s = 0; s < num_states(); ++s) {
    if (accepting_[s]) out += " " + std::to_string(s);
  }
  out += "\n";
  for (uint32_t s = 0; s < num_states(); ++s) {
    for (const NfaTransition& t : transitions_[s]) {
      out += std::to_string(s) + " -" + alphabet.SymbolName(t.symbol) +
             "-> " + std::to_string(t.to) + "\n";
    }
    for (uint32_t t : epsilons_[s]) {
      out += std::to_string(s) + " -eps-> " + std::to_string(t) + "\n";
    }
  }
  return out;
}

}  // namespace rq
