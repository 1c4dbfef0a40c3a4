// Conjunctive two-way regular path queries and their unions (paper §3.3).
//
// A C2RPQ is a conjunctive query whose atoms are 2RPQs: κ(x, y) asks for a
// semipath from x to y conforming to the regular expression κ. UC2RPQ is
// the closure under union. Example 1 of the paper (the triangle query) is
//   q(x, y) :- (r)(x, y), (r)(x, z), (r)(y, z)
// in the syntax accepted here: each atom is '(' regex ')' '(' v ',' v ')'.
//
// Evaluation instantiates every 2RPQ atom as a binary relation over the
// graph (product-automaton BFS) and then joins them as a conjunctive query,
// exactly the two-phase semantics the paper describes.
//
// Containment (Theorem 6: EXPSPACE-complete) is handled by:
//   * the chain collapse when both sides are unions of chains: each side
//     denotes one 2RPQ (TryLowerUc2Rpq), and Theorem 5's fold decides the
//     pair exactly;
//   * the expansion test otherwise: an expansion of Q1 replaces each atom
//     by a concrete word of its language, folding into a canonical graph;
//     Q1 ⊑ Q2 iff Q2 answers the head pair on every such graph. The word
//     enumeration is exhaustive for finite languages (exact verdict) and
//     bounded otherwise (exact refutations, kUnknownUpToBound on success).
#ifndef RQ_CRPQ_CRPQ_H_
#define RQ_CRPQ_CRPQ_H_

#include <optional>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "common/status.h"
#include "graph/graph_db.h"
#include "pathquery/path_query.h"
#include "regex/regex.h"
#include "relational/matcher.h"
#include "relational/relation.h"
#include "rq/containment.h"

namespace rq {

struct CrpqAtom {
  RegexPtr regex;
  VarId from;
  VarId to;
};

struct Crpq {
  std::vector<VarId> head;
  std::vector<CrpqAtom> atoms;
  uint32_t num_vars = 0;
  std::vector<std::string> var_names;

  Status Validate() const;
  std::string ToString(const Alphabet& alphabet) const;
};

struct Uc2Rpq {
  std::vector<Crpq> disjuncts;

  Status Validate() const;
  std::string ToString(const Alphabet& alphabet) const;
};

// Parses "q(x, y) :- (knows+)(x, z), (member- member)(z, y)". Labels are
// interned into `alphabet`.
Result<Crpq> ParseCrpq(std::string_view text, Alphabet* alphabet);
// One disjunct per line; blank lines and `#` or `%` comment lines are
// skipped.
Result<Uc2Rpq> ParseUc2Rpq(std::string_view text, Alphabet* alphabet);

// Evaluation over a graph database (whose alphabet must be the alphabet the
// query was parsed against). Atom 2RPQs instantiate through the shared
// product-BFS kernel; `options` fans the per-atom source sets across the
// worker pool (pathquery/path_query.h). The GraphDb overloads take one CSR
// snapshot for the whole query (all atoms / all disjuncts); pass a
// snapshot yourself to amortize it across queries.
Result<Relation> EvalCrpq(const GraphDb& db, const Crpq& query,
                          const PathEvalOptions& options = {});
Result<Relation> EvalCrpq(const GraphSnapshot& snapshot, const Crpq& query,
                          const PathEvalOptions& options = {});
Result<Relation> EvalUc2Rpq(const GraphDb& db, const Uc2Rpq& query,
                            const PathEvalOptions& options = {});
Result<Relation> EvalUc2Rpq(const GraphSnapshot& snapshot,
                            const Uc2Rpq& query,
                            const PathEvalOptions& options = {});

// The 2RPQ a UC2RPQ denotes when every disjunct is one simple chain of
// atoms head[0] -> z1 -> ... -> head[1] (paper §3.3): each middle
// variable is existential and sits in exactly two atoms, no atom is a
// self-loop and none is left over. A chain is the concatenation of its
// atoms' regexes, an atom walked backwards entering as its
// InverseExpression(); a union of chains is the union regex. Evaluated
// from every node it answers what EvalUc2Rpq does: each atom relation
// already comes from the kernel over the same node set, so ε atoms need
// no special case. Nullopt for any other shape and for an invalid query.
// This is the one recognizer of the 2RPQ fragment: eval (query/query.h),
// CheckUc2RpqContainment and the RQ lowering (rq/lower.h) all collapse
// through it.
std::optional<RegexPtr> TryLowerUc2Rpq(const Uc2Rpq& query);

// Bounds of the expansion test; the chain collapse needs none.
struct CrpqContainmentOptions {
  // Longest atom-language word instantiated during expansion.
  size_t max_word_length = 4;
  size_t max_expansions = 50000;
};

struct CrpqContainmentResult {
  Certainty certainty = Certainty::kUnknownUpToBound;
  std::string method;  // "2rpq-fold" or "expansion-exact"/"-bounded"
  // When refuted: canonical graph + head pair answered by q1 but not q2.
  std::optional<GraphDb> counterexample;
  // Head tuple (node ids in `counterexample`) answered by q1 but not q2.
  Tuple witness_tuple;
  // Convenience aliases of the first two witness columns.
  NodeId witness_x = 0;
  NodeId witness_y = 0;
  size_t expansions_checked = 0;
  // True when the expansion enumeration hit max_word_length/max_expansions
  // before exhausting q1's language: a kUnknownUpToBound verdict then means
  // "cap hit", not "infinite language bounded exactly".
  bool truncated = false;
};

Result<CrpqContainmentResult> CheckUc2RpqContainment(
    const Uc2Rpq& q1, const Uc2Rpq& q2, const Alphabet& alphabet,
    const CrpqContainmentOptions& options = {});

}  // namespace rq

#endif  // RQ_CRPQ_CRPQ_H_
