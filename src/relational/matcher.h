// Generic backtracking matcher: finds all assignments of variables to
// values satisfying a conjunction of atoms over relations.
//
// This single engine powers conjunctive-query evaluation, Datalog rule
// application, and homomorphism search for Chandra-Merlin containment
// (evaluating Q2 on the canonical database of Q1 *is* the homomorphism
// test). Atoms are matched most-constrained-first; an atom with at least one
// bound variable scans only the rows indexed by that value.
#ifndef RQ_RELATIONAL_MATCHER_H_
#define RQ_RELATIONAL_MATCHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "relational/relation.h"

namespace rq {

using VarId = uint32_t;

// One atom of the conjunction: a relation and the variables filling its
// columns (repeats allowed, e.g. r(x, x)).
struct MatchAtom {
  const Relation* relation;
  std::vector<VarId> vars;
};

// Invokes `on_match` for every satisfying assignment (indexed by VarId,
// size num_vars). Returns the number of matches, or stops early (and
// returns the count so far) once `on_match` returns false. Every match
// first polls the installed ExecContext (common/deadline.h); a deadline,
// cancellation or budget trip stops the search the same way, and since
// the verdict latches, the caller's next CheckExecContext() reports it.
inline constexpr Value kUnboundValue = 0xffffffffffffffffULL;

size_t MatchConjunction(const std::vector<MatchAtom>& atoms, uint32_t num_vars,
                        const std::function<bool(const std::vector<Value>&)>&
                            on_match);

// Ablation variant: matches atoms strictly in the given order instead of
// most-constrained-first (candidate filtering via bound columns still
// applies). Same results; bench_matcher_ablation measures the join-order
// heuristic's payoff.
size_t MatchConjunctionInOrder(
    const std::vector<MatchAtom>& atoms, uint32_t num_vars,
    const std::function<bool(const std::vector<Value>&)>& on_match);

// Convenience: true if at least one satisfying assignment exists. False as
// well when the installed context trips first; poll it to tell apart.
bool ConjunctionSatisfiable(const std::vector<MatchAtom>& atoms,
                            uint32_t num_vars);

}  // namespace rq

#endif  // RQ_RELATIONAL_MATCHER_H_
