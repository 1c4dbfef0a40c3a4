// Shared ticket-queue worker pool.
//
// ParallelFor(n, jobs, work) runs work(i) for i in [0, n) on `jobs`
// std::jthread workers. The queue is an atomic ticket counter: each worker
// claims the next unclaimed index, so uneven per-item costs balance
// automatically and no static partition can stall the pool. jobs <= 1 (or
// n <= 1) runs inline on the calling thread with no pool at all, so serial
// callers pay nothing. When a thread cannot start (std::system_error, or
// std::bad_alloc for its state), the pool stops growing: the threads
// already started drain the queue, and if none started the caller runs it
// inline.
//
// `work` must only touch per-index state or state that is internally
// synchronized (obs counters/histograms/gauges and the automata cache
// qualify). Exceptions must not escape `work`.
//
// Each pool thread runs under a mirror of the calling thread's installed
// ExecContext (ExecContext::ChildOf, common/deadline.h): `work` polls the
// caller's deadline, cancel token and byte budget, charges the caller's
// memory pot and notes into the caller's query profile, exactly as it
// would inline. A mirror latches on its own thread, so the caller learns
// of a worker's trip by polling its own context after the pool joins.
//
// This is the pool behind the front door's path-containment jobs
// (containment/batch.h) and multi-source graph evaluation
// (pathquery/path_query.h).
#ifndef RQ_COMMON_PARALLEL_H_
#define RQ_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <new>
#include <system_error>
#include <thread>
#include <vector>

#include "common/deadline.h"

namespace rq {

// Process-wide default worker count. Starts at 1 (serial); the --jobs
// flags (rqcheck, rqeval, rqserved, bench harness) raise it. Path-query
// containment jobs always run at it, and multi-source graph evaluation
// when its jobs option is 0.
void SetDefaultParallelJobs(unsigned jobs);
unsigned DefaultParallelJobs();

template <typename Work>
void ParallelFor(size_t n, unsigned jobs, Work&& work) {
  if (jobs <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) work(i);
    return;
  }
  unsigned workers = jobs < n ? jobs : static_cast<unsigned>(n);
  const ExecContext* parent = ExecContext::Current();
  std::atomic<size_t> next{0};
  auto drain = [&next, n, &work] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      work(i);
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      try {
        pool.emplace_back([&drain, parent] {
          // A caller without a context gets workers without one.
          ExecContext mirror = ExecContext::ChildOf(parent);
          ScopedExecContext scoped(parent != nullptr ? &mirror : nullptr);
          drain();
        });
      } catch (const std::system_error&) {
        // No thread (EAGAIN): the ones started drain the queue, or the
        // caller does when none did.
        break;
      } catch (const std::bad_alloc&) {
        break;  // no memory for the thread's state: likewise
      }
    }
    if (pool.empty()) drain();
  }  // jthreads join here
}

}  // namespace rq

#endif  // RQ_COMMON_PARALLEL_H_
