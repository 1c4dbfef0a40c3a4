// Path-query containment checks as one batch of independent jobs: the
// front door's rpq/2rpq containment (one job) and equivalence (one job per
// direction). Each job runs CheckPathQueryContainment
// (pathquery/containment.h) under the caller's installed ExecContext
// (common/deadline.h), or under its mirror on a pool thread when the
// process default worker count (common/parallel.h) is above 1. So the
// caller's deadline, cancel token, byte budget and query profile bound and
// record every job, and a trip on the shared token or pot stops the other
// jobs at their next poll. Results land at their job's index; the
// automata cache is thread-safe and shared across concurrent checks
// (docs/CACHING.md).
#ifndef RQ_CONTAINMENT_BATCH_H_
#define RQ_CONTAINMENT_BATCH_H_

#include <vector>

#include "automata/alphabet.h"
#include "pathquery/containment.h"
#include "regex/regex.h"

namespace rq {

// One path-query containment check Q1 ⊑ Q2 (RPQ or 2RPQ; dispatch per pair
// as in CheckPathQueryContainment). Regexes must outlive the call.
struct PathContainmentJob {
  const Regex* q1 = nullptr;
  const Regex* q2 = nullptr;
};

// Runs every job and returns the verdicts in job order. A job never aborts
// the process or the batch: a null-pointer job comes back with a per-job
// kInvalidArgument status (the other jobs still run), and a job whose
// caller has already stopped returns that context's status without
// running.
std::vector<PathContainmentResult> CheckPathContainmentBatch(
    const std::vector<PathContainmentJob>& jobs, const Alphabet& alphabet);

}  // namespace rq

#endif  // RQ_CONTAINMENT_BATCH_H_
