// The query front door: the paper's class table, written once. rqserved,
// rqcheck and rqeval reach the parsers, evaluators and containment
// procedures only through here.
//
//   class    syntax (docs/SYNTAX.md)  containment                 eval: route
//   rpq      regex                    Lemma 1 (languages)         path: kernel
//   2rpq     regex with inverses r-   Theorem 5 (fold)            path: kernel
//   cq, ucq  rules over atoms         Chandra-Merlin (one rule),  -
//                                     else Sagiv-Yannakakis
//   uc2rpq   rules over regex atoms   2rpq-fold when both sides   crpq: kernel
//                                     are unions of chains, else  or join
//                                     expansions
//   rq       the RQ algebra           Theorem 7 dispatch (first   rq: kernel or
//                                     as uc2rpq, when both sides  rq-algebra
//                                     lower)
//   datalog  rules and a goal         GRQ route (Theorem 8),      datalog:
//                                     else bounded expansions     kernel or
//                                                                 semi-naive
//
// rpq and 2rpq checks run as path-containment jobs (containment/batch.h)
// under the caller's context: one job for a containment, one per
// direction for an equivalence, the two concurrently when the process
// default worker count is above 1.
//
// An eval runs on the lowest rung of the ladder it lies on
// (docs/EVALUATION.md "Routes"): a crpq whose disjuncts are chains, a
// binary rq that lowers to one (rq/lower.h) and a linear chain datalog
// program each denote one 2RPQ and run as one product-BFS kernel call, as
// a path query does; any other runs its class's engine. The crpq and rq
// routes, like uc2rpq and rq containment, collapse chains through the one
// chain walker, TryLowerUc2Rpq (crpq/crpq.h). Each eval notes its route
// in the query's profile as `eval.route`.
#ifndef RQ_QUERY_QUERY_H_
#define RQ_QUERY_QUERY_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "crpq/crpq.h"
#include "datalog/program.h"
#include "graph/graph_db.h"
#include "graph/snapshot.h"
#include "pathquery/path_query.h"
#include "relational/relation.h"
#include "rq/containment.h"
#include "rq/rq_expr.h"

namespace rq {

// What a refutation carries, as text: a word of L(q1) outside L(q2) (rpq,
// 2rpq), or a graph (uc2rpq) or database (rq, datalog) on which q1
// answers a tuple that q2 does not. cq and ucq carry none.
struct Counterexample {
  std::string kind;  // "word", "graph" or "database"; empty for none
  std::string text;
};

// One containment or equivalence verdict, whatever the class.
struct Verdict {
  // Of an equivalence: proved = equivalent, refuted = not equivalent.
  Certainty certainty = Certainty::kUnknownUpToBound;
  // The procedure that decided ("lemma1" or "2rpq-fold" for rpq and 2rpq,
  // "chandra-merlin", "expansion-exact", ...); empty for an equivalence
  // and for a direction left unchecked.
  std::string method;
  // uc2rpq only: whether the expansion set was cut at its budget.
  std::optional<bool> truncated;
  // Of an equivalence: the first refuted direction's.
  Counterexample counterexample;
  // Of an equivalence: q1 ⊑ q2, then q2 ⊑ q1.
  std::vector<Verdict> directions;
};

// rpq and 2rpq: queries are regexes, and verdicts name a pipeline.
bool IsPathClass(std::string_view cls);

// Parses q1 and q2 as queries of `cls` (rpq|2rpq|cq|ucq|uc2rpq|rq|datalog)
// and decides q1 ⊑ q2. Parse and procedure errors, deadline and budget
// trips, and an unknown class come back as the Status.
Result<Verdict> CheckContainment(std::string_view cls, std::string_view q1,
                                 std::string_view q2);

// Decides q1 ≡ q2 as both containments, for rpq, 2rpq and rq; other
// classes are Unimplemented, an empty one InvalidArgument.
Result<Verdict> CheckEquivalence(std::string_view cls, std::string_view q1,
                                 std::string_view q2);

// "equivalent", "not-equivalent" or "unknown-up-to-bound".
const char* EquivalenceName(Certainty certainty);

// A graph's relational image (rq/eval.h GraphToDatabase), built on first
// use: the first dereference builds it and every column index of its
// relations, concurrent first uses wait for that one build
// (std::call_once), and every copy of the handle shares the result.
class RelationalImage {
 public:
  RelationalImage() = default;  // no graph: must not be dereferenced
  explicit RelationalImage(std::shared_ptr<const GraphDb> graph);

  const Database& operator*() const;
  const Database* operator->() const { return &**this; }

 private:
  struct State {
    std::once_flag built;
    std::shared_ptr<const GraphDb> graph;
    Database database;
  };
  std::shared_ptr<State> state_;
};

// What an eval reads: one immutable graph, its CSR snapshot (every kernel
// route and the crpq join) and its relational image (the rq and datalog
// engines). Copies share every component, so they evaluate concurrently.
struct EvalTarget {
  EvalTarget() = default;  // no graph
  // Snapshots `graph` now; the relational image waits for its first use.
  explicit EvalTarget(std::shared_ptr<const GraphDb> graph);
  // Takes `snapshot`, already built from `graph`, as is.
  EvalTarget(std::shared_ptr<const GraphDb> graph,
             std::shared_ptr<const GraphSnapshot> snapshot);

  std::shared_ptr<const GraphDb> graph;
  std::shared_ptr<const GraphSnapshot> snapshot;
  RelationalImage database;
};

using ParsedQuery = std::variant<PathQuery, Uc2Rpq, RqQuery, DatalogProgram>;

// Parses `text` as a query of eval class `cls` (path|crpq|rq|datalog).
// Path and crpq labels intern into a copy of `alphabet`, the graph's, so
// a shared graph is never written.
Result<ParsedQuery> ParseQuery(std::string_view cls, std::string_view text,
                               const Alphabet& alphabet);

// The answer of `query` on `target`, sorted, by the route the class table
// above gives it. A deadline or budget trip, or a failed kernel
// allocation, comes back as the Status, never as a partial answer.
Result<SortedRows> Evaluate(const ParsedQuery& query,
                            const EvalTarget& target);

}  // namespace rq

#endif  // RQ_QUERY_QUERY_H_
