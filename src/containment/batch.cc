#include "containment/batch.h"

#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/parallel.h"
#include "common/status.h"

namespace rq {

std::vector<PathContainmentResult> CheckPathContainmentBatch(
    const std::vector<PathContainmentJob>& jobs, const Alphabet& alphabet) {
  std::vector<PathContainmentResult> results(jobs.size());
  ParallelFor(jobs.size(), DefaultParallelJobs(), [&](size_t i) {
    const PathContainmentJob& job = jobs[i];
    PathContainmentResult& result = results[i];
    if (job.q1 == nullptr || job.q2 == nullptr) {
      result.status = InvalidArgumentError("CheckPathContainmentBatch: job " +
                                           std::to_string(i) +
                                           " has a null regex");
      return;
    }
    result.status = CheckExecContext();
    if (!result.status.ok()) return;
    result = CheckPathQueryContainment(*job.q1, *job.q2, alphabet);
  });
  return results;
}

}  // namespace rq
