// Parallel batch containment: fans a vector of independent containment
// checks across a std::jthread worker pool. Each worker pulls job indices
// off a shared queue, so uneven check costs balance automatically; results
// land at their job's index, so output order is deterministic regardless of
// scheduling. Single-pair semantics are exactly those of the underlying
// checkers (automata/containment.h, pathquery/containment.h) — including
// their use of the automata cache, which is thread-safe and deduplicates
// shared sub-constructions across concurrent workers (docs/CACHING.md).
// Each job runs under one fresh ExecContext (common/deadline.h) built from
// the options below and chained to the caller's installed context, so the
// caller's deadline, cancel token and byte budget bound every job.
#ifndef RQ_CONTAINMENT_BATCH_H_
#define RQ_CONTAINMENT_BATCH_H_

#include <cstdint>
#include <vector>

#include "automata/containment.h"
#include "common/deadline.h"
#include "pathquery/containment.h"
#include "regex/regex.h"

namespace rq {

// Which single-pair decision procedure the batch runs.
enum class ContainmentAlgo {
  kOnTheFly,   // CheckLanguageContainment
  kAntichain,  // CheckLanguageContainmentAntichain
  kExplicit,   // CheckLanguageContainmentExplicit
};

struct ContainmentBatchOptions {
  // Worker threads; 0 means DefaultParallelJobs() (common/parallel.h).
  // Values <= 1 run the batch inline on the calling thread (no pool).
  unsigned jobs = 0;
  ContainmentAlgo algo = ContainmentAlgo::kOnTheFly;
  // Per-job wall-clock budget in milliseconds (0 = none). Each job gets a
  // FRESH deadline when a worker picks it up, clipped to the caller's own
  // installed ExecContext deadline; expiry fails that job with
  // kDeadlineExceeded in its result Status (docs/ROBUSTNESS.md).
  int64_t job_timeout_ms = 0;
  // Optional external cancellation: trip it from any thread and jobs not
  // yet started report kCancelled (running jobs unwind at their next
  // poll). Must outlive the batch call.
  CancelToken* cancel = nullptr;
  // When a job fails at runtime (deadline, cancellation, internal error),
  // cancel the jobs still queued behind it — they report kCancelled.
  // Up-front validation failures (null pointers) never trigger this; the
  // rest of the batch still runs.
  bool cancel_on_error = true;
  // Per-job memory budget in bytes (0 = none). Each job's context has its
  // own accounting pot chained to the caller's installed context, so job
  // bytes also count against any caller-wide budget. A job crossing either
  // budget fails with kResourceExhausted in its result Status at its next
  // poll, through the same sites that enforce job_timeout_ms.
  uint64_t memory_budget_bytes = 0;
};

// One L(a) ⊆ L(b) check. Both automata must outlive the batch call and
// share num_symbols.
struct NfaContainmentJob {
  const Nfa* a = nullptr;
  const Nfa* b = nullptr;
};

// Runs every job and returns the verdicts in job order. A job never aborts
// the process or the batch: null-pointer jobs come back with a per-job
// kInvalidArgument status (the other jobs still run), and deadline /
// cancellation trips land in the affected job's result Status.
std::vector<LanguageContainmentResult> CheckContainmentBatch(
    const std::vector<NfaContainmentJob>& jobs,
    const ContainmentBatchOptions& options = {});

// One path-query containment check Q1 ⊑ Q2 (RPQ or 2RPQ; dispatch per pair
// as in CheckPathQueryContainment). Regexes must outlive the call.
struct PathContainmentJob {
  const Regex* q1 = nullptr;
  const Regex* q2 = nullptr;
};

std::vector<PathContainmentResult> CheckPathContainmentBatch(
    const std::vector<PathContainmentJob>& jobs, const Alphabet& alphabet,
    const ContainmentBatchOptions& options = {});

}  // namespace rq

#endif  // RQ_CONTAINMENT_BATCH_H_
