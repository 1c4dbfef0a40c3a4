// Bottom-up Datalog evaluation: naive and semi-naive fixpoints (paper §2.2).
//
// Evaluation is stratified by the dependence graph's SCC condensation:
// components are computed dependencies-first, non-recursive components with
// a single pass, recursive components with a fixpoint. The semi-naive mode
// joins each rule once per recursive body atom against that predicate's
// delta, so a fact participates in new derivations only in the round after
// it appears; the naive mode re-derives everything every round. The
// benchmark bench_datalog_eval measures the classic gap between the two.
//
// Round-counting contract (shared by both modes): a *round* is one pass
// over an SCC's rule set evaluated against the relations as they stood at
// the start of that pass. A non-recursive SCC contributes exactly one
// round; a recursive SCC contributes one round per fixpoint pass executed,
// including the final pass that derives nothing (the fixpoint
// confirmation). Both modes evaluate rounds against the round-start
// snapshot — naive defers inserts until a pass completes, and semi-naive's
// seeding pass counts as round one (when it derives nothing the fixpoint
// is already confirmed and no delta pass runs) — so for any program and
// database `rounds` is identical in the two modes; only the work done per
// round (rule_applications, tuples_considered) differs. All four fields
// are mirrored into the process-wide observability registry under the
// `datalog.*` counter names (see docs/OBSERVABILITY.md); this struct is
// the per-call adapter view.
#ifndef RQ_DATALOG_EVAL_H_
#define RQ_DATALOG_EVAL_H_

#include <cstdint>

#include "common/status.h"
#include "datalog/program.h"
#include "relational/relation.h"

namespace rq {

enum class DatalogEvalMode { kNaive, kSemiNaive };

struct DatalogEvalStats {
  uint64_t rounds = 0;            // fixpoint iterations across all SCCs
  uint64_t rule_applications = 0; // rule-body joins executed
  uint64_t tuples_considered = 0; // tuples produced by joins (pre-dedup)
  uint64_t tuples_derived = 0;    // new tuples added
};

// Evaluates the program over `edb` and returns the goal predicate's
// relation. EDB relations are read in place: the evaluation builds only
// the IDB relations, moves the goal's out, and answers an EDB goal with
// its stored relation. `edb` may not hold an IDB predicate, and is only
// read (a relation's first probe builds its column index, so share `edb`
// across threads only after Database::BuildIndexes). `stats` is optional.
Result<Relation> EvalDatalogGoal(const DatalogProgram& program,
                                 const Database& edb,
                                 DatalogEvalMode mode =
                                     DatalogEvalMode::kSemiNaive,
                                 DatalogEvalStats* stats = nullptr);

}  // namespace rq

#endif  // RQ_DATALOG_EVAL_H_
