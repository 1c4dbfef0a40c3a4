// Conjunctive queries and unions of conjunctive queries (paper §2.1),
// with the classical containment tests:
//   * CQ ⊆ CQ — Chandra-Merlin [18]: Q1 ⊆ Q2 iff there is a homomorphism
//     from Q2 into the canonical (frozen) database of Q1 mapping head to
//     head; we decide it by evaluating Q2 over the canonical database.
//   * UCQ ⊆ UCQ — Sagiv-Yannakakis [50]: each disjunct of the left side
//     must be contained in some disjunct of the right side; equivalently,
//     the right UCQ must answer the frozen head on each left canonical
//     database.
//
// Queries are pure (no constants, no negation): exactly the class the paper
// works with. Every head variable must occur in the body (range
// restriction); Validate() enforces this.
#ifndef RQ_RELATIONAL_CQ_H_
#define RQ_RELATIONAL_CQ_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "relational/matcher.h"
#include "relational/relation.h"

namespace rq {

struct CqAtom {
  std::string predicate;
  std::vector<VarId> vars;
};

// A conjunctive query: head variable tuple + body atoms. Variables are
// dense ids 0..num_vars-1; names (for parsing/printing) are kept alongside.
struct ConjunctiveQuery {
  std::vector<VarId> head;
  std::vector<CqAtom> atoms;
  uint32_t num_vars = 0;
  std::vector<std::string> var_names;  // optional, size num_vars when set

  // Head arity.
  size_t arity() const { return head.size(); }

  // Checks range restriction and variable-id consistency.
  Status Validate() const;

  // The canonical ("frozen") database: each variable becomes the constant
  // equal to its id, each atom becomes a tuple.
  Database CanonicalDatabase() const;

  // The frozen head tuple matching CanonicalDatabase().
  Tuple FrozenHead() const;

  std::string ToString() const;
};

struct UnionOfConjunctiveQueries {
  std::vector<ConjunctiveQuery> disjuncts;

  Status Validate() const;
  std::string ToString() const;
};

// Evaluates a CQ over a database; returns a relation of head-arity tuples.
// Atoms over relations absent from the database yield an empty result.
Result<Relation> EvalCq(const Database& db, const ConjunctiveQuery& query);

// Evaluates a UCQ (union of the disjunct answers). All disjuncts must have
// equal arity.
Result<Relation> EvalUcq(const Database& db,
                         const UnionOfConjunctiveQueries& query);

// Chandra-Merlin containment test for CQs.
Result<bool> CqContained(const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2);

// A containment certificate: the homomorphism h from q2's variables into
// q1's canonical database (variable ids of q1, frozen as values) with
// h(head of q2) = head of q1. The vector is indexed by q2's variable ids;
// variables of q2 that occur nowhere map to kUnboundValue. nullopt when
// q1 ⊄ q2.
Result<std::optional<std::vector<Value>>> CqContainmentWitness(
    const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

// Sagiv-Yannakakis containment test for UCQs.
Result<bool> UcqContained(const UnionOfConjunctiveQueries& q1,
                          const UnionOfConjunctiveQueries& q2);

// Parses "q(x,y) :- edge(x,z), edge(z,y)". The head predicate name is
// ignored (queries are anonymous); variables are identifiers.
Result<ConjunctiveQuery> ParseCq(std::string_view text);

// Parses one CQ per line into a UCQ; blank lines and `#` or `%` comment
// lines are skipped.
Result<UnionOfConjunctiveQueries> ParseUcq(std::string_view text);

// Random CQ for tests/benches: a connected pattern of `num_atoms` binary
// atoms over `num_predicates` predicate names p0..p_{k-1} and about
// `num_vars` variables, with a binary head.
ConjunctiveQuery RandomBinaryCq(size_t num_atoms, size_t num_vars,
                                size_t num_predicates, Rng& rng);

}  // namespace rq

#endif  // RQ_RELATIONAL_CQ_H_
