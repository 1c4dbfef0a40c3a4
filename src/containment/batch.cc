#include "containment/batch.h"

#include <atomic>
#include <vector>

#include "common/clock.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "common/status.h"
#include "obs/profile.h"
#include "obs/subsystems.h"
#include "obs/trace.h"

namespace rq {

namespace {

// Runs `work(i)` for i in [0, n) on the shared ticket-queue pool
// (common/parallel.h), wrapped in the batch engine's bookkeeping. `work`
// must only touch per-index state (the checkers' shared state — obs
// counters and the automata cache — is internally synchronized).
//
// Per-worker profile rows: when the caller's context carries a query
// profile (obs/profile.h), each pool thread accumulates its own job count
// and busy wall-time in a slot only it touches, and the rows are flushed
// to that profile once after the pool joins — worker attribution without
// any shared mutable state inside the job loop.
template <typename Work>
void RunJobs(size_t n, unsigned jobs, Work work) {
  obs::BatchCounters& counters = obs::BatchCounters::Get();
  counters.batches.Increment();
  counters.batch_checks.Add(n);
  // Queue-depth gauge: all n jobs enter the backlog up front; each
  // finished job drains one. The peak is the deepest backlog across any
  // overlapping batches. One gauge update per job, not per inner step, so
  // the checkers' hot loops stay untouched.
  counters.queue_depth.Add(static_cast<int64_t>(n));
  obs::QueryProfile* profile = obs::CurrentProfile();
  if (profile == nullptr) {
    ParallelFor(n, jobs, [&counters, &work](size_t i) {
      work(i);
      counters.queue_depth.Sub(1);
    });
    return;
  }
  struct WorkerStats {
    uint64_t jobs = 0;
    uint64_t busy_ns = 0;
  };
  unsigned slots = jobs > 1 ? jobs : 1;
  std::vector<WorkerStats> per_worker(slots);
  ParallelForWorker(n, jobs,
                    [&counters, &work, &per_worker](unsigned worker,
                                                    size_t i) {
                      uint64_t begin = SteadyNowNs();
                      work(i);
                      counters.queue_depth.Sub(1);
                      WorkerStats& stats = per_worker[worker];
                      ++stats.jobs;
                      stats.busy_ns += SteadyNowNs() - begin;
                    });
  for (unsigned w = 0; w < slots; ++w) {
    if (per_worker[w].jobs == 0) continue;
    profile->RecordWorker(w, per_worker[w].jobs, per_worker[w].busy_ns);
  }
}

unsigned EffectiveJobs(const ContainmentBatchOptions& options) {
  return options.jobs != 0 ? options.jobs : DefaultParallelJobs();
}

// Per-job policy shared by both batch entry points. The caller's context
// is captured when the batch starts; each job then runs under one fresh
// context combining:
//   * a fresh job deadline (options.job_timeout_ms, measured from pickup)
//     clipped to the caller's deadline;
//   * one cancel source — the caller-supplied token, else the caller's
//     token, else the batch's internal first-error token;
//   * a per-job byte budget (options.memory_budget_bytes, 0 = unlimited)
//     whose pot chains to the caller's, so job bytes roll up into the
//     caller's accounting and a trip of either budget fails the job with
//     kResourceExhausted at its next poll.
// Jobs not yet started when any cancel source fires report kCancelled
// without running; jobs already running unwind at their next poll only if
// their own context watches the fired token.
struct BatchExecGuard {
  const ContainmentBatchOptions& options;
  const ExecContext* parent;
  CancelToken first_error;

  explicit BatchExecGuard(const ContainmentBatchOptions& opts)
      : options(opts), parent(ExecContext::Current()) {}

  bool CancelledBeforeStart() const {
    return first_error.Cancelled() ||
           (options.cancel != nullptr && options.cancel->Cancelled()) ||
           (parent != nullptr && parent->cancel_token() != nullptr &&
            parent->cancel_token()->Cancelled());
  }

  ExecContext JobContext() {
    Deadline deadline = options.job_timeout_ms > 0
                            ? Deadline::AfterMillis(options.job_timeout_ms)
                            : Deadline::Infinite();
    CancelToken* cancel = &first_error;
    if (parent != nullptr) {
      deadline = Deadline::Earlier(deadline, parent->deadline());
      if (parent->cancel_token() != nullptr) cancel = parent->cancel_token();
    }
    if (options.cancel != nullptr) cancel = options.cancel;
    return ExecContext(deadline, cancel, options.memory_budget_bytes,
                       parent);
  }

  void OnJobResult(const Status& status) {
    if (!status.ok() && options.cancel_on_error) first_error.Cancel();
  }
};

}  // namespace

std::vector<LanguageContainmentResult> CheckContainmentBatch(
    const std::vector<NfaContainmentJob>& jobs,
    const ContainmentBatchOptions& options) {
  RQ_TRACE_SPAN_VAR(span, "containment.batch");
  span.AddAttr("jobs", jobs.size());
  std::vector<LanguageContainmentResult> results(jobs.size());
  // Validate up front: a bad job fails with a per-job status instead of
  // aborting the process from a worker thread, and — unlike runtime
  // failures — never cancels the rest of the batch.
  std::vector<bool> invalid(jobs.size(), false);
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].a == nullptr || jobs[i].b == nullptr) {
      invalid[i] = true;
      results[i].status = InvalidArgumentError(
          "CheckContainmentBatch: job " + std::to_string(i) +
          " has a null automaton");
    }
  }
  BatchExecGuard guard(options);
  RunJobs(jobs.size(), EffectiveJobs(options), [&](size_t i) {
    if (invalid[i]) return;
    if (guard.CancelledBeforeStart()) {
      results[i].status = CancelledError(
          "CheckContainmentBatch: job " + std::to_string(i) +
          " cancelled before start");
      return;
    }
    ExecContext ctx = guard.JobContext();
    {
      ScopedExecContext scoped(&ctx);
      switch (options.algo) {
        case ContainmentAlgo::kOnTheFly:
          results[i] = CheckLanguageContainment(*jobs[i].a, *jobs[i].b);
          break;
        case ContainmentAlgo::kAntichain:
          results[i] =
              CheckLanguageContainmentAntichain(*jobs[i].a, *jobs[i].b);
          break;
        case ContainmentAlgo::kExplicit:
          results[i] =
              CheckLanguageContainmentExplicit(*jobs[i].a, *jobs[i].b);
          break;
      }
    }
    guard.OnJobResult(results[i].status);
  });
  return results;
}

std::vector<PathContainmentResult> CheckPathContainmentBatch(
    const std::vector<PathContainmentJob>& jobs, const Alphabet& alphabet,
    const ContainmentBatchOptions& options) {
  RQ_TRACE_SPAN_VAR(span, "containment.batch");
  span.AddAttr("jobs", jobs.size());
  std::vector<PathContainmentResult> results(jobs.size());
  std::vector<bool> invalid(jobs.size(), false);
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].q1 == nullptr || jobs[i].q2 == nullptr) {
      invalid[i] = true;
      results[i].status = InvalidArgumentError(
          "CheckPathContainmentBatch: job " + std::to_string(i) +
          " has a null regex");
    }
  }
  BatchExecGuard guard(options);
  RunJobs(jobs.size(), EffectiveJobs(options), [&](size_t i) {
    if (invalid[i]) return;
    if (guard.CancelledBeforeStart()) {
      results[i].status = CancelledError(
          "CheckPathContainmentBatch: job " + std::to_string(i) +
          " cancelled before start");
      return;
    }
    ExecContext ctx = guard.JobContext();
    {
      ScopedExecContext scoped(&ctx);
      results[i] =
          CheckPathQueryContainment(*jobs[i].q1, *jobs[i].q2, alphabet);
    }
    guard.OnJobResult(results[i].status);
  });
  return results;
}

}  // namespace rq
