// Memory accounting under real concurrency (ctest label `memv1`, tsan
// binary): ExecContext::ChildOf mirrors charging one shared pot from many
// threads, budget trips racing across mirrors, the executor installing a
// mirror of the caller's context on every ParallelFor worker, and the two
// fan-out sites built on it (path-containment jobs and parallel
// multi-source graph evaluation). ThreadSanitizer checks the atomics; the
// asserts check that concurrent charges aggregate exactly and that budget
// trips are sticky and coherent on every thread.
#include "common/mem.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "containment/batch.h"
#include "graph/generators.h"
#include "obs/counters.h"
#include "pathquery/path_query.h"
#include "regex/regex.h"

namespace rq {
namespace {

TEST(MemConcurrencyTest, MirrorsAggregateExactlyIntoOnePot) {
  constexpr int kThreads = 8;
  constexpr int64_t kBytesPerThread = 1000;
  ExecContext root;
  // Every thread holds its charge at the latch, so the pot's peak must
  // reach exactly kThreads * kBytesPerThread — no more (total never
  // overshoots), no less (all charges are simultaneously live).
  std::latch all_charged(kThreads);
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&root, &all_charged] {
      ExecContext mirror = ExecContext::ChildOf(&root);
      ScopedExecContext scoped(&mirror);
      MemScope scope(MemSubsystem::kAutomata);
      MemCharge(kBytesPerThread);
      all_charged.arrive_and_wait();
    });
  }
  threads.clear();  // join; every scope released its charge
  EXPECT_EQ(root.total_bytes(), 0u);
  EXPECT_EQ(root.peak_total_bytes(),
            static_cast<uint64_t>(kThreads) * kBytesPerThread);
  EXPECT_EQ(root.peak_subsystem_bytes(MemSubsystem::kAutomata),
            static_cast<uint64_t>(kThreads) * kBytesPerThread);
}

TEST(MemConcurrencyTest, MirrorOutlivesItsRoot) {
  // The pot is shared_ptr-owned: a mirror keeps it alive after the root
  // context object is gone, so pool workers can outlast the frame that
  // spawned them.
  auto root = std::make_unique<ExecContext>();
  ExecContext mirror = ExecContext::ChildOf(root.get());
  root.reset();
  ScopedExecContext scoped(&mirror);
  MemCharge(5);
  MemCharge(-5);
  EXPECT_EQ(mirror.total_bytes(), 0u);
  EXPECT_GE(mirror.peak_total_bytes(), 5u);
}

TEST(MemConcurrencyTest, BudgetTripIsStickyAcrossRacingMirrors) {
  constexpr int kThreads = 8;
  obs::CounterDelta delta;
  ExecContext root(Deadline::Infinite(), /*cancel=*/nullptr,
                   /*budget_bytes=*/1);
  std::latch all_charged(kThreads);
  std::vector<StatusCode> codes(kThreads, StatusCode::kOk);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&root, &all_charged, &codes, t] {
        ExecContext mirror = ExecContext::ChildOf(&root);
        ScopedExecContext scoped(&mirror);
        MemScope scope(MemSubsystem::kFold);
        MemCharge(100);
        all_charged.arrive_and_wait();
        codes[static_cast<size_t>(t)] = mirror.Check().code();
      });
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(codes[static_cast<size_t>(t)], StatusCode::kResourceExhausted)
        << "thread " << t;
  }
  EXPECT_TRUE(root.exceeded());
  // Each mirror latched once (one mem.budget_exceeded bump per context,
  // not per poll).
  EXPECT_EQ(delta.Delta("mem.budget_exceeded"),
            static_cast<uint64_t>(kThreads));
}

// The executor itself carries the caller's context to its workers: no
// fan-out site code is involved.
TEST(MemConcurrencyTest, ParallelForWorkersPollTheCallersDeadline) {
  constexpr size_t kItems = 16;
  ExecContext ctx(Deadline::AfterMillis(-1));  // already expired
  ScopedExecContext scoped(&ctx);
  std::vector<StatusCode> codes(kItems, StatusCode::kOk);
  ParallelFor(kItems, 4,
              [&codes](size_t i) { codes[i] = CheckExecContext().code(); });
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(codes[i], StatusCode::kDeadlineExceeded) << "item " << i;
  }
}

TEST(MemConcurrencyTest, ParallelForWorkersChargeTheCallersPot) {
  constexpr int kWorkers = 4;
  constexpr int64_t kBytesPerWorker = 1000;
  ExecContext ctx;  // unlimited
  ScopedExecContext scoped(&ctx);
  // Each worker holds its charge at the latch, so all four items run at
  // once on four distinct pool threads and the peak is their sum.
  std::latch all_charged(kWorkers);
  ParallelFor(kWorkers, kWorkers, [&all_charged](size_t) {
    MemScope scope(MemSubsystem::kGraph);
    MemCharge(kBytesPerWorker);
    all_charged.arrive_and_wait();
  });
  EXPECT_EQ(ctx.peak_total_bytes(),
            static_cast<uint64_t>(kWorkers) * kBytesPerWorker);
  EXPECT_EQ(ctx.peak_subsystem_bytes(MemSubsystem::kGraph),
            static_cast<uint64_t>(kWorkers) * kBytesPerWorker);
  EXPECT_EQ(ctx.total_bytes(), 0u);
}

TEST(MemConcurrencyTest, BatchPoolWorkersChargeCallerPot) {
  // One-way pairs, each deciding through the subset-interning Lemma 1
  // check, which charges the automata subsystem.
  Alphabet alphabet;
  std::vector<RegexPtr> regexes;
  std::vector<PathContainmentJob> jobs;
  Rng rng(1234);
  const char* labels[] = {"a", "b", "c"};
  for (int i = 0; i < 24; ++i) {
    std::string q2 = "(a | b | c)*";
    for (int k = 0; k < 3 + i % 4; ++k) {
      q2 += std::string(" ") + labels[rng.Below(3)];
    }
    regexes.push_back(ParseRegex("(a | b | c)* a", &alphabet).value());
    regexes.push_back(ParseRegex(q2, &alphabet).value());
    jobs.push_back({regexes[regexes.size() - 2].get(), regexes.back().get()});
  }
  ExecContext root;
  ScopedExecContext scoped(&root);
  const unsigned saved = DefaultParallelJobs();
  SetDefaultParallelJobs(4);
  std::vector<PathContainmentResult> results =
      CheckPathContainmentBatch(jobs, alphabet);
  SetDefaultParallelJobs(saved);
  ASSERT_EQ(results.size(), jobs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << "job " << i;
  }
  // The pool threads' mirrors charged this pot directly.
  EXPECT_GT(root.peak_total_bytes(), 0u);
  EXPECT_GT(root.peak_subsystem_bytes(MemSubsystem::kAutomata), 0u);
  EXPECT_EQ(root.total_bytes(), 0u);  // all scopes released at job exit
}

TEST(MemConcurrencyTest, ParallelMultiSourceEvalChargesCallerPot) {
  GraphDb db = RandomGraph(60, 400, {"a", "b", "c"}, /*seed=*/17);
  auto q = ParsePathQuery("a (b | c-)* a-", &db.alphabet());
  ASSERT_TRUE(q.ok());
  const Nfa nfa =
      q->regex->ToNfa(static_cast<uint32_t>(db.alphabet().num_symbols()))
          .WithoutEpsilons();
  const GraphSnapshotPtr snapshot = db.Snapshot();
  std::vector<NodeId> sources;
  for (NodeId n = 0; n < snapshot->num_nodes(); ++n) sources.push_back(n);

  const auto serial = EvalPathQueryFromSources(*snapshot, nfa, sources,
                                               PathEvalOptions{.jobs = 1});
  ExecContext root;
  ScopedExecContext scoped(&root);
  const auto parallel = EvalPathQueryFromSources(*snapshot, nfa, sources,
                                                 PathEvalOptions{.jobs = 8});
  EXPECT_EQ(parallel, serial);
  // The pool's per-worker mirrors charged BFS bitsets/frontiers into this
  // pot.
  EXPECT_GT(root.peak_subsystem_bytes(MemSubsystem::kGraph), 0u);
  EXPECT_EQ(root.total_bytes(), 0u);
}

}  // namespace
}  // namespace rq
