#include "relational/matcher.h"

#include <algorithm>
#include <utility>

#include "common/deadline.h"

namespace rq {

namespace {

// What one recursion level does with every candidate row of its atom.
// The variables the atom binds, the columns it checks, and the bound-count
// bumps those bindings cause are the same for every row, so they are
// worked out once per atom pick. Levels keep their vectors across calls,
// so a search allocates nothing per row.
struct Level {
  std::vector<std::pair<size_t, VarId>> binds;   // (column, free variable)
  std::vector<std::pair<size_t, VarId>> checks;  // (column, bound variable)
  std::vector<std::pair<size_t, uint32_t>> saved_counts;  // (atom, count)
};

struct SearchState {
  const std::vector<MatchAtom>* atoms;
  bool reorder = true;
  std::vector<bool> used;            // atom already matched
  std::vector<Value> binding;        // per var, kUnboundValue if free
  std::vector<uint32_t> bound_count; // per atom, number of bound vars
  std::vector<Level> levels;         // per recursion depth
  const std::function<bool(const std::vector<Value>&)>* on_match;
  size_t matches = 0;
  bool stopped = false;
};

// Picks the unmatched atom with the most bound variables, breaking ties by
// smaller relation (cheap greedy join order).
int PickAtom(const SearchState& st) {
  int best = -1;
  for (size_t i = 0; i < st.atoms->size(); ++i) {
    if (st.used[i]) continue;
    if (!st.reorder) return static_cast<int>(i);
    if (best == -1) {
      best = static_cast<int>(i);
      continue;
    }
    const MatchAtom& a = (*st.atoms)[i];
    const MatchAtom& b = (*st.atoms)[best];
    if (st.bound_count[i] > st.bound_count[best] ||
        (st.bound_count[i] == st.bound_count[best] &&
         a.relation->size() < b.relation->size())) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

void Recurse(SearchState& st, size_t depth) {
  int pick = PickAtom(st);
  if (pick < 0) {
    // The one poll site of every join (CQ, C2RPQ, RQ, Datalog): a trip
    // latches on the installed context, stops the search, and the
    // Status-returning caller reports it.
    if (!CheckExecContext().ok()) {
      st.stopped = true;
      return;
    }
    ++st.matches;
    if (!(*st.on_match)(st.binding)) st.stopped = true;
    return;
  }
  const MatchAtom& atom = (*st.atoms)[pick];
  const Relation& relation = *atom.relation;
  Level& level = st.levels[depth];
  level.binds.clear();
  level.checks.clear();
  level.saved_counts.clear();

  // Candidate rows: restrict by the first bound column if any. Every other
  // column either binds a free variable (its first occurrence) or must
  // equal the variable's value (bound earlier, or repeated in this atom).
  int probe_col = -1;
  for (size_t c = 0; c < atom.vars.size(); ++c) {
    VarId v = atom.vars[c];
    if (st.binding[v] != kUnboundValue) {
      if (probe_col < 0) {
        probe_col = static_cast<int>(c);
      } else {
        level.checks.emplace_back(c, v);
      }
    } else if (std::find(atom.vars.begin(), atom.vars.begin() + c, v) ==
               atom.vars.begin() + c) {
      level.binds.emplace_back(c, v);
    } else {
      level.checks.emplace_back(c, v);
    }
  }

  st.used[pick] = true;
  for (size_t i = 0; i < st.atoms->size() && !level.binds.empty(); ++i) {
    if (st.used[i]) continue;
    uint32_t add = 0;
    for (VarId v : (*st.atoms)[i].vars) {
      for (const auto& bind : level.binds) {
        if (v == bind.second) ++add;
      }
    }
    if (add > 0) {
      level.saved_counts.emplace_back(i, st.bound_count[i]);
      st.bound_count[i] += add;
    }
  }

  auto try_row = [&](const Value* row) {
    for (const auto& [c, v] : level.binds) st.binding[v] = row[c];
    for (const auto& [c, v] : level.checks) {
      if (st.binding[v] != row[c]) return;
    }
    Recurse(st, depth + 1);
  };
  if (probe_col >= 0) {
    const size_t col = static_cast<size_t>(probe_col);
    for (uint32_t row : relation.RowsWithValue(col, st.binding[atom.vars[col]])) {
      if (st.stopped) break;
      try_row(relation.row(row).data());
    }
  } else {
    for (size_t row = 0, n = relation.size(); row < n && !st.stopped; ++row) {
      try_row(relation.row(row).data());
    }
  }

  for (const auto& bind : level.binds) st.binding[bind.second] = kUnboundValue;
  for (const auto& [i, old] : level.saved_counts) st.bound_count[i] = old;
  st.used[pick] = false;
}

size_t MatchImpl(const std::vector<MatchAtom>& atoms, uint32_t num_vars,
                 const std::function<bool(const std::vector<Value>&)>&
                     on_match,
                 bool reorder) {
  for (const MatchAtom& atom : atoms) {
    RQ_CHECK(atom.relation != nullptr);
    RQ_CHECK(atom.relation->arity() == atom.vars.size());
    for (VarId v : atom.vars) RQ_CHECK(v < num_vars);
  }
  SearchState st;
  st.atoms = &atoms;
  st.reorder = reorder;
  st.used.assign(atoms.size(), false);
  st.binding.assign(num_vars, kUnboundValue);
  st.bound_count.assign(atoms.size(), 0);
  st.levels.resize(atoms.size());
  st.on_match = &on_match;
  Recurse(st, 0);
  return st.matches;
}

}  // namespace

size_t MatchConjunction(const std::vector<MatchAtom>& atoms, uint32_t num_vars,
                        const std::function<bool(const std::vector<Value>&)>&
                            on_match) {
  return MatchImpl(atoms, num_vars, on_match, /*reorder=*/true);
}

size_t MatchConjunctionInOrder(
    const std::vector<MatchAtom>& atoms, uint32_t num_vars,
    const std::function<bool(const std::vector<Value>&)>& on_match) {
  return MatchImpl(atoms, num_vars, on_match, /*reorder=*/false);
}

bool ConjunctionSatisfiable(const std::vector<MatchAtom>& atoms,
                            uint32_t num_vars) {
  bool found = false;
  MatchConjunction(atoms, num_vars, [&](const std::vector<Value>&) {
    found = true;
    return false;  // stop at first match
  });
  return found;
}

}  // namespace rq
