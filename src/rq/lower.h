// Lowering Regular Queries into the UC2RPQ fragment (paper §3.3-3.4).
//
// A binary RQ built from atoms (in either orientation), composition chains
// through existential middles, disjunction and transitive closure denotes
// one 2RPQ. It lowers in two steps: TryLowerToUc2Rpq below gives a union
// of C2RPQs, and TryLowerUc2Rpq (crpq/crpq.h), the one recognizer of the
// 2RPQ fragment, collapses each chain. Eval (query/query.h) and the
// containment dispatcher (rq/containment.h, through
// CheckUc2RpqContainment) both take that route, so a pair of such queries
// is decided by the exact PSPACE fold pipeline (Theorem 5) instead of the
// bounded expansion search.
//
// The lowering is sound: a lowered query answers what the expression does
// on every database. It is deliberately not complete (e.g. selections and
// atoms of other arities are rejected).
#ifndef RQ_RQ_LOWER_H_
#define RQ_RQ_LOWER_H_

#include <optional>

#include "automata/alphabet.h"
#include "crpq/crpq.h"
#include "rq/rq_expr.h"

namespace rq {

// Lowers a query into the UC2RPQ fragment (paper §3.3): a union of
// conjunctions of 2RPQ atoms. Succeeds when every disjunct flattens into
// conjuncts that are each path-shaped between two variables (closures,
// unions and chains inside those paths), with non-head variables
// existential. More queries lower this way than to a single 2RPQ — e.g.
// the paper's Example 1 patterns — which lets the containment dispatcher
// use the UC2RPQ procedure on them. Labels are interned into `alphabet`.
std::optional<Uc2Rpq> TryLowerToUc2Rpq(const RqQuery& query,
                                       Alphabet* alphabet);

}  // namespace rq

#endif  // RQ_RQ_LOWER_H_
