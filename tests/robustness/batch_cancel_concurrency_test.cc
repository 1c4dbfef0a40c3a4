// Batch cancellation under real concurrency (ctest label `robustness`,
// tsan binary): path-containment jobs (containment/batch.h) at four pool
// threads under a caller's context whose CancelToken is tripped from
// another thread mid-batch, whose token has already fired, or whose byte
// budget the first job crosses, plus two callers with independent tokens
// at once. ThreadSanitizer checks the
// token, pot and queue synchronization; the asserts check that every job
// lands with a coherent per-job status.
#include "containment/batch.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/parallel.h"
#include "obs/counters.h"
#include "regex/regex.h"

namespace rq {
namespace {

// Jobs whose right side is (a | b)* a (a | b)^n: deciding them interns up
// to 2^n subsets of its automaton, so each job takes long enough for a
// cancel a millisecond in to land mid-batch. Even jobs are containments
// (the same language on the left), odd ones refutations.
struct PathPool {
  Alphabet alphabet;
  std::vector<RegexPtr> regexes;
  std::vector<PathContainmentJob> jobs;
};

PathPool MakePathPool(int num_jobs) {
  PathPool pool;
  for (int i = 0; i < num_jobs; ++i) {
    std::string tail;
    for (int k = 0; k < 6 + i % 4; ++k) tail += " (a | b)";
    const std::string left = i % 2 == 0 ? "a" : "b";
    pool.regexes.push_back(
        ParseRegex("(a | b)* " + left + tail, &pool.alphabet).value());
    pool.regexes.push_back(
        ParseRegex("(a | b)* a" + tail, &pool.alphabet).value());
    pool.jobs.push_back({pool.regexes[pool.regexes.size() - 2].get(),
                         pool.regexes.back().get()});
  }
  return pool;
}

// Sets the process-default worker count for one test.
class DefaultJobs {
 public:
  explicit DefaultJobs(unsigned jobs) : saved_(DefaultParallelJobs()) {
    SetDefaultParallelJobs(jobs);
  }
  ~DefaultJobs() { SetDefaultParallelJobs(saved_); }

 private:
  unsigned saved_;
};

// Every job must end in exactly one of: a real verdict (ok) or the
// caller's cancellation. Anything else (or an abort) is a bug.
void ExpectOkOrCancelled(const std::vector<PathContainmentResult>& results) {
  for (size_t i = 0; i < results.size(); ++i) {
    const Status& s = results[i].status;
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kCancelled)
        << "job " << i << ": " << s.ToString();
    if (s.ok()) {
      EXPECT_EQ(results[i].contained, i % 2 == 0) << "job " << i;
    }
  }
}

TEST(BatchCancelConcurrencyTest, ExternalCancelMidBatchDrainsQueue) {
  PathPool pool = MakePathPool(64);
  DefaultJobs jobs(4);
  CancelToken token;
  ExecContext caller(Deadline::Infinite(), &token);
  ScopedExecContext scoped(&caller);

  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    token.Cancel();
  });
  std::vector<PathContainmentResult> results =
      CheckPathContainmentBatch(pool.jobs, pool.alphabet);
  canceller.join();

  // Every job was accounted for, though most never ran.
  ASSERT_EQ(results.size(), pool.jobs.size());
  ExpectOkOrCancelled(results);
}

TEST(BatchCancelConcurrencyTest, CancelBeforeStartCancelsEveryJob) {
  PathPool pool = MakePathPool(32);
  DefaultJobs jobs(4);
  CancelToken token;
  token.Cancel();
  ExecContext caller(Deadline::Infinite(), &token);
  ScopedExecContext scoped(&caller);
  obs::CounterDelta delta;
  std::vector<PathContainmentResult> results =
      CheckPathContainmentBatch(pool.jobs, pool.alphabet);
  ASSERT_EQ(results.size(), pool.jobs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kCancelled)
        << "job " << i;
  }
  // No job ran its check.
  EXPECT_EQ(delta.Delta("containment.checks"), 0u);
}

TEST(BatchCancelConcurrencyTest, FirstErrorCancelsQueuedJobsAcrossWorkers) {
  // A one-byte budget on the caller's pot: the first charge of whichever
  // job runs first crosses it, and every job after it on any pool thread
  // stops at its pre-job poll of the shared pot without running.
  PathPool pool = MakePathPool(48);
  DefaultJobs jobs(4);
  ExecContext caller(Deadline::Infinite(), /*cancel=*/nullptr,
                     /*budget_bytes=*/1);
  ScopedExecContext scoped(&caller);
  obs::CounterDelta delta;
  std::vector<PathContainmentResult> results =
      CheckPathContainmentBatch(pool.jobs, pool.alphabet);
  ASSERT_EQ(results.size(), pool.jobs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kResourceExhausted)
        << "job " << i << ": " << results[i].status.ToString();
  }
  // At most one check ran per pool thread: the one that tripped the pot.
  EXPECT_GE(delta.Delta("containment.checks"), 1u);
  EXPECT_LE(delta.Delta("containment.checks"), 4u);
  EXPECT_TRUE(caller.exceeded());
}

TEST(BatchCancelConcurrencyTest, ConcurrentBatchesWithIndependentTokens) {
  // Two callers in flight at once: one cancelled, one running to
  // completion. The cancelled batch must not leak its cancellation into
  // the healthy one (separate contexts, separate tokens).
  PathPool pool = MakePathPool(24);
  DefaultJobs jobs(3);
  CancelToken cancelled;
  cancelled.Cancel();
  std::vector<PathContainmentResult> cancelled_results;
  std::thread cancelled_caller([&] {
    ExecContext ctx(Deadline::Infinite(), &cancelled);
    ScopedExecContext scoped(&ctx);
    cancelled_results = CheckPathContainmentBatch(pool.jobs, pool.alphabet);
  });
  CancelToken healthy;
  ExecContext ctx(Deadline::Infinite(), &healthy);
  ScopedExecContext scoped(&ctx);
  std::vector<PathContainmentResult> healthy_results =
      CheckPathContainmentBatch(pool.jobs, pool.alphabet);
  cancelled_caller.join();

  ASSERT_EQ(healthy_results.size(), pool.jobs.size());
  for (size_t i = 0; i < healthy_results.size(); ++i) {
    EXPECT_TRUE(healthy_results[i].status.ok()) << "job " << i;
    EXPECT_EQ(healthy_results[i].contained, i % 2 == 0) << "job " << i;
  }
  ASSERT_EQ(cancelled_results.size(), pool.jobs.size());
  for (size_t i = 0; i < cancelled_results.size(); ++i) {
    EXPECT_EQ(cancelled_results[i].status.code(), StatusCode::kCancelled)
        << "job " << i;
  }
}

}  // namespace
}  // namespace rq
