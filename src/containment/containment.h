// Datalog ⊑ Datalog, the top of the paper's ladder (§4). When both
// programs are GRQ (recursion = transitive closure only), containment goes
// through the RQ extraction exactly as §4.1 prescribes; otherwise the
// checker falls back to bounded proof-tree expansions, which refute
// exactly and prove only for nonrecursive left-hand sides. The query front
// door (query/query.h) picks the procedure for every class, this one
// included.
#ifndef RQ_CONTAINMENT_CONTAINMENT_H_
#define RQ_CONTAINMENT_CONTAINMENT_H_

#include "common/status.h"
#include "datalog/program.h"
#include "datalog/unfold.h"
#include "rq/containment.h"

namespace rq {

struct DatalogContainmentOptions {
  ExpandLimits expand;
  bool try_grq = true;
  RqContainmentOptions rq;
};

// Decides (or bounds) goal(q1) ⊑ goal(q2). Both programs need goals of the
// same arity. Returns the same verdict structure as RQ containment;
// `method` is prefixed with "grq:" when the GRQ extraction applied.
Result<RqContainmentResult> CheckDatalogContainment(
    const DatalogProgram& q1, const DatalogProgram& q2,
    const DatalogContainmentOptions& options = {});

}  // namespace rq

#endif  // RQ_CONTAINMENT_CONTAINMENT_H_
