// Robustness tests (ctest label `robustness`, sanitize binary): deadline
// and cancellation semantics of common/deadline.h, their propagation
// through the containment ladder and the evaluators, per-job batch
// statuses, the expansion-truncation flag, the rewriting subset budget,
// and the LRU oversized-insert bypass. Timeout tests use pre-expired
// deadlines so they are deterministic — no racing against a real clock.
#include "common/deadline.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automata/containment.h"
#include "cache/lru.h"
#include "common/mem.h"
#include "common/parallel.h"
#include "containment/batch.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "obs/counters.h"
#include "pathquery/containment.h"
#include "pathquery/path_query.h"
#include "query/query.h"
#include "regex/regex.h"
#include "relational/cq.h"
#include "rq/containment.h"
#include "rq/eval.h"
#include "rq/parser.h"
#include "views/rewriting.h"

namespace rq {
namespace {

Deadline ExpiredDeadline() { return Deadline::AfterMillis(-1); }

RegexPtr Parse(const std::string& text, Alphabet* alphabet) {
  auto parsed = ParseRegex(text, alphabet);
  RQ_CHECK(parsed.ok());
  return *parsed;
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingNanos(), Deadline::kInfiniteNs);
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  EXPECT_TRUE(ExpiredDeadline().Expired());
  EXPECT_LT(ExpiredDeadline().RemainingNanos(), 0);
  EXPECT_FALSE(Deadline::AfterMillis(60'000).Expired());
}

TEST(ExecContextTest, NoInstalledContextIsOk) {
  EXPECT_TRUE(CheckExecContext().ok());
  EXPECT_FALSE(ExecStopRequested());
}

TEST(ExecContextTest, ExpiredDeadlineTripsAndLatches) {
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  Status first = CheckExecContext();
  EXPECT_EQ(first.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(ctx.stopped());
  // Latched: every later poll returns the same verdict without a fresh
  // clock read.
  EXPECT_EQ(CheckExecContext().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(ExecStopRequested());
}

TEST(ExecContextTest, CancelTokenTripsAsCancelled) {
  CancelToken token;
  ExecContext ctx(Deadline::Infinite(), &token);
  ScopedExecContext scoped(&ctx);
  EXPECT_TRUE(CheckExecContext().ok());
  token.Cancel();
  EXPECT_EQ(CheckExecContext().code(), StatusCode::kCancelled);
  EXPECT_TRUE(ctx.stopped());
}

TEST(ExecContextTest, ScopeRestoresPreviousContext) {
  ExecContext outer(Deadline::Infinite());
  ScopedExecContext outer_scope(&outer);
  EXPECT_EQ(ExecContext::Current(), &outer);
  {
    ExecContext inner(ExpiredDeadline());
    ScopedExecContext inner_scope(&inner);
    EXPECT_EQ(ExecContext::Current(), &inner);
  }
  EXPECT_EQ(ExecContext::Current(), &outer);
  EXPECT_TRUE(CheckExecContext().ok());
}

TEST(ExecContextTest, TripBumpsExpiredCounterOnce) {
  obs::CounterDelta delta;
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  (void)CheckExecContext();
  (void)CheckExecContext();
  EXPECT_EQ(delta.Delta("deadline.expired"), 1u);
  EXPECT_EQ(delta.Delta("deadline.cancelled"), 0u);
}

TEST(ExecContextTest, ChildOfMirrorsDeadlineAndToken) {
  CancelToken token;
  ExecContext parent(ExpiredDeadline(), &token);
  ExecContext child = ExecContext::ChildOf(&parent);
  EXPECT_EQ(child.cancel_token(), &token);
  EXPECT_TRUE(child.deadline().Expired());
  ExecContext orphan = ExecContext::ChildOf(nullptr);
  EXPECT_TRUE(orphan.deadline().IsInfinite());
  EXPECT_EQ(orphan.cancel_token(), nullptr);
}

TEST(DeadlinePropagationTest, LanguageContainmentReturnsDeadlineStatus) {
  Alphabet alphabet;
  RegexPtr r1 = Parse("(a | b)* a", &alphabet);
  RegexPtr r2 = Parse("(a | b)*", &alphabet);
  Nfa a = r1->ToNfa(r1->MinNumSymbols());
  Nfa b = r2->ToNfa(r2->MinNumSymbols());
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  EXPECT_EQ(CheckLanguageContainment(a, b).status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CheckLanguageContainmentAntichain(a, b).status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CheckLanguageContainmentExplicit(a, b).status.code(),
            StatusCode::kDeadlineExceeded);
}

TEST(DeadlinePropagationTest, TwoWayFoldPipelineReturnsDeadlineStatus) {
  Alphabet alphabet;
  RegexPtr q1 = Parse("p", &alphabet);
  RegexPtr q2 = Parse("p p- p", &alphabet);
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  PathContainmentResult result =
      CheckPathQueryContainment(*q1, *q2, alphabet);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlinePropagationTest, RqContainmentReturnsDeadlineError) {
  auto q1 = ParseRq("q(x,y) := tc[x,y](a(x,y) & b(x,y))");
  auto q2 = ParseRq("q(x,y) := tc[x,y](a(x,y))");
  ASSERT_TRUE(q1.ok() && q2.ok());
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  auto result = CheckRqContainment(*q1, *q2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlinePropagationTest, DatalogEvalReturnsDeadlineError) {
  auto program = ParseDatalog(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- tc(X, Y), edge(Y, Z).
    ?- tc.
  )");
  ASSERT_TRUE(program.ok());
  Database db;
  Relation* e = db.GetOrCreate("edge", 2).value();
  e->Insert({1, 2});
  e->Insert({2, 3});
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  for (DatalogEvalMode mode :
       {DatalogEvalMode::kNaive, DatalogEvalMode::kSemiNaive}) {
    auto result = EvalDatalogGoal(*program, db, mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

// The eval entry points: a tripped context is reported as the error,
// never as an Ok (possibly empty or partial) answer.
GraphDb KnowsChain() {
  return GraphDb::FromText("a knows b\nb knows c\nc knows d\n").value();
}

TEST(DeadlinePropagationTest, RqEvalReturnsDeadlineError) {
  auto query = ParseRq("q(x,y) := tc[x,y](knows(x,y))");
  ASSERT_TRUE(query.ok());
  Database db = GraphToDatabase(KnowsChain());
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  auto result = EvalRqQuery(db, *query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// A knows chain of 200 nodes: all-pairs `knows+` spans four 64-source
// lanes.
EvalTarget LongKnowsChain() {
  std::string text;
  for (int i = 0; i + 1 < 200; ++i) {
    text += "n" + std::to_string(i) + " knows n" + std::to_string(i + 1) + "\n";
  }
  return EvalTarget(
      std::make_shared<const GraphDb>(GraphDb::FromText(text).value()));
}

TEST(DeadlinePropagationTest, PathEvalReturnsDeadlineError) {
  EvalTarget target = LongKnowsChain();
  auto query = ParseQuery("path", "knows+", target.graph->alphabet());
  ASSERT_TRUE(query.ok());
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  EXPECT_TRUE(
      EvalPathQuery(*target.snapshot, *std::get<PathQuery>(*query).regex)
          .empty());
  auto rows = Evaluate(*query, target);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlinePropagationTest, Uc2RpqEvalReturnsDeadlineError) {
  GraphDb graph = KnowsChain();
  auto query = ParseUc2Rpq("q(x,y) :- (knows+)(x,y)", &graph.alphabet());
  ASSERT_TRUE(query.ok());
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  auto result = EvalUc2Rpq(graph, *query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlinePropagationTest, UcqEvalReturnsDeadlineError) {
  auto query = ParseUcq("q(x,z) :- knows(x,y), knows(y,z)");
  ASSERT_TRUE(query.ok());
  Database db = GraphToDatabase(KnowsChain());
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  auto result = EvalUcq(db, *query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlinePropagationTest, Uc2RpqContainmentReturnsDeadlineError) {
  Alphabet alphabet;
  auto q1 = ParseUc2Rpq("q(x, y) :- (a*)(x, z), (a*)(z, y)", &alphabet);
  auto q2 = ParseUc2Rpq("q(x, y) :- (a*)(x, z), (a*)(z, y)", &alphabet);
  ASSERT_TRUE(q1.ok() && q2.ok());
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  auto result = CheckUc2RpqContainment(*q1, *q2, alphabet);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlinePropagationTest, RewritingReturnsDeadlineError) {
  Alphabet alphabet;
  RegexPtr query = Parse("(a b)*", &alphabet);
  std::vector<View> views;
  views.push_back({"v", Parse("a b", &alphabet)});
  ExecContext ctx(ExpiredDeadline());
  ScopedExecContext scoped(&ctx);
  auto result = MaximalRewriting(*query, views, alphabet);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// Regression: the UC2RPQ expansion budget used to be computed and then
// discarded; the result must surface it. The side atom (b)(x, w) keeps
// the query off the chain collapse, so the expansion test runs.
TEST(CrpqTruncationTest, LowExpansionBudgetSetsTruncatedFlag) {
  Alphabet alphabet;
  auto q1 = ParseUc2Rpq("q(x, y) :- (a*)(x, z), (a*)(z, y), (b)(x, w)",
                        &alphabet);
  ASSERT_TRUE(q1.ok());
  CrpqContainmentOptions options;
  options.max_expansions = 3;
  auto result = CheckUc2RpqContainment(*q1, *q1, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->certainty, Certainty::kUnknownUpToBound);
  EXPECT_LE(result->expansions_checked, options.max_expansions);
}

TEST(CrpqTruncationTest, FiniteLanguageIsNotTruncated) {
  Alphabet alphabet;
  auto q1 = ParseUc2Rpq("q(x, y) :- (a)(x, z), (b)(z, y)", &alphabet);
  ASSERT_TRUE(q1.ok());
  auto result = CheckUc2RpqContainment(*q1, *q1, alphabet);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->truncated);
  EXPECT_EQ(result->certainty, Certainty::kProved);
}

// Satellite: the subset construction's state budget fails cleanly with
// kResourceExhausted instead of looping or aborting.
TEST(RewritingBudgetTest, SubsetBudgetReturnsResourceExhausted) {
  Alphabet alphabet;
  RegexPtr query = Parse("(a b)* | a (b a)*", &alphabet);
  std::vector<View> views;
  views.push_back({"va", Parse("a", &alphabet)});
  views.push_back({"vb", Parse("b", &alphabet)});
  auto result = MaximalRewriting(*query, views, alphabet, /*max_states=*/1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// The path-containment jobs with the process default at `workers`
// (restored after).
std::vector<PathContainmentResult> RunBatch(
    const std::vector<PathContainmentJob>& jobs, const Alphabet& alphabet,
    unsigned workers) {
  const unsigned saved = DefaultParallelJobs();
  SetDefaultParallelJobs(workers);
  std::vector<PathContainmentResult> results =
      CheckPathContainmentBatch(jobs, alphabet);
  SetDefaultParallelJobs(saved);
  return results;
}

TEST(BatchStatusTest, NullJobsGetPerJobInvalidArgument) {
  Alphabet alphabet;
  RegexPtr r = Parse("a", &alphabet);
  std::vector<PathContainmentJob> jobs;
  jobs.push_back({r.get(), r.get()});   // contained
  jobs.push_back({nullptr, r.get()});   // invalid
  jobs.push_back({r.get(), nullptr});   // invalid
  jobs.push_back({r.get(), r.get()});   // contained — must still run
  std::vector<PathContainmentResult> results = RunBatch(jobs, alphabet, 2);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[0].contained);
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[3].status.ok());
  EXPECT_TRUE(results[3].contained);
}

TEST(BatchStatusTest, PathBatchNullJobsGetPerJobInvalidArgument) {
  Alphabet alphabet;
  RegexPtr q = Parse("a b", &alphabet);
  std::vector<PathContainmentJob> jobs;
  jobs.push_back({q.get(), q.get()});
  jobs.push_back({nullptr, q.get()});
  std::vector<PathContainmentResult> results =
      CheckPathContainmentBatch(jobs, alphabet);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[0].contained);
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
}

// Jobs run under the caller's context, so its expired deadline stops each
// one at its pre-job poll, inline and on pool threads alike.
TEST(BatchStatusTest, ExpiredCallerDeadlineFailsEveryJob) {
  Alphabet alphabet;
  RegexPtr r = Parse("(a | b)* a", &alphabet);
  std::vector<PathContainmentJob> jobs(8, {r.get(), r.get()});
  ExecContext caller(ExpiredDeadline());
  ScopedExecContext scoped(&caller);
  for (unsigned workers : {1u, 4u}) {
    obs::CounterDelta delta;
    std::vector<PathContainmentResult> results =
        RunBatch(jobs, alphabet, workers);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status.code(), StatusCode::kDeadlineExceeded)
          << "workers " << workers << " job " << i;
    }
    EXPECT_EQ(delta.Delta("containment.checks"), 0u);
  }
}

TEST(BatchStatusTest, ExternalTokenCancelsQueuedJobs) {
  Alphabet alphabet;
  RegexPtr r = Parse("a", &alphabet);
  std::vector<PathContainmentJob> jobs(3, {r.get(), r.get()});
  CancelToken token;
  token.Cancel();  // already fired: every job reports kCancelled
  ExecContext caller(Deadline::Infinite(), &token);
  ScopedExecContext scoped(&caller);
  std::vector<PathContainmentResult> results = RunBatch(jobs, alphabet, 2);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kCancelled)
        << "job " << i;
  }
}

// Satellite regression for src/cache/lru.h: an entry larger than the whole
// budget used to evict every resident entry and then itself — the cache
// ended up empty. Oversized values now bypass insertion.
// Exit-code precedence when BOTH resource bounds trip (docs/ROBUSTNESS.md
// "Which error wins"): a context polls its byte budget BEFORE its cancel
// token and deadline, and a crossed budget overrides even a latched
// deadline, so once the byte budget is exceeded every subsequent poll
// reports kResourceExhausted. rqcheck mirrors this: a check whose pot was
// exceeded exits 4 even when the deadline also expired.
TEST(ResourcePrecedenceTest, MemoryVerdictOutranksLatchedDeadline) {
  obs::CounterDelta delta;
  ExecContext ctx(ExpiredDeadline(), /*cancel=*/nullptr,
                  /*budget_bytes=*/1);  // the first charge crosses it
  ScopedExecContext scoped(&ctx);
  // The deadline latches first: nothing has been charged yet.
  EXPECT_EQ(CheckExecContext().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(ctx.stopped());
  {
    MemScope scope(MemSubsystem::kOther);
    MemCharge(2);
    // Both bounds are now tripped. The memory verdict overrides the
    // latched deadline, and keeps winning...
    EXPECT_EQ(CheckExecContext().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(CheckExecContext().code(), StatusCode::kResourceExhausted);
  }
  // ...after the charge is released too: the one latch now holds it.
  EXPECT_EQ(ctx.Check().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx.exceeded());
  // Each verdict was counted once, when it latched.
  EXPECT_EQ(delta.Delta("deadline.expired"), 1u);
  EXPECT_EQ(delta.Delta("mem.budget_exceeded"), 1u);
}

TEST(ResourcePrecedenceTest, MemoryVerdictWinsWhenBothTripBeforeFirstPoll) {
  // A fresh context already over both bounds before anything polls: the
  // first poll reports the memory verdict, so a query that trips both
  // surfaces kResourceExhausted (rqcheck exit 4), not kDeadlineExceeded.
  obs::CounterDelta delta;
  ExecContext ctx(ExpiredDeadline(), /*cancel=*/nullptr,
                  /*budget_bytes=*/1);
  ScopedExecContext scoped(&ctx);
  MemScope scope(MemSubsystem::kOther);
  MemCharge(2);
  EXPECT_EQ(CheckExecContext().code(), StatusCode::kResourceExhausted);
  // The deadline never got to latch.
  EXPECT_EQ(delta.Delta("deadline.expired"), 0u);
}

TEST(ResourcePrecedenceTest, MemoryOutranksCancelOutranksDeadline) {
  CancelToken token;
  token.Cancel();
  ExecContext ctx(ExpiredDeadline(), &token, /*budget_bytes=*/1);
  ScopedExecContext scoped(&ctx);
  // Cancelled and expired: the token is read before the clock.
  EXPECT_EQ(CheckExecContext().code(), StatusCode::kCancelled);
  MemScope scope(MemSubsystem::kOther);
  MemCharge(2);
  // A crossed budget overrides the latched cancellation too.
  EXPECT_EQ(CheckExecContext().code(), StatusCode::kResourceExhausted);
}

TEST(ResourcePrecedenceTest, CheckerSurfacesMemoryErrorWhenBothTrip) {
  // End to end through a real decision procedure: with an expired deadline
  // AND an exhausted byte budget installed, the containment checker's
  // Status carries the memory verdict.
  Alphabet alphabet;
  RegexPtr q1 = Parse("a a* b", &alphabet);
  RegexPtr q2 = Parse("a* b", &alphabet);
  ExecContext ctx(ExpiredDeadline(), /*cancel=*/nullptr,
                  /*budget_bytes=*/1);
  ScopedExecContext scoped(&ctx);
  MemScope scope(MemSubsystem::kOther);
  MemCharge(2);
  PathContainmentResult result =
      CheckPathQueryContainment(*q1, *q2, alphabet);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
}

TEST(LruOversizedTest, OversizedPutBypassesInsteadOfFlushingCache) {
  obs::CounterDelta delta;
  cache::LruByteCache<int> cache("ovsz_test", /*byte_budget=*/512);
  auto small = cache.Put("small", 7, /*value_bytes=*/16);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(cache.entries(), 1u);

  auto big = cache.Put("big", 42, /*value_bytes=*/1 << 20);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(*big, 42);  // caller still gets the freshly built value
  EXPECT_EQ(cache.Get("big"), nullptr);  // but it was never cached

  // The resident entry survived.
  EXPECT_EQ(cache.entries(), 1u);
  auto hit = cache.Get("small");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 7);

  EXPECT_EQ(delta.Delta("cache.ovsz_test_oversized"), 1u);
  EXPECT_EQ(delta.Delta("cache.ovsz_test_evictions"), 0u);
}

TEST(LruOversizedTest, BudgetSizedEntryStillInserts) {
  cache::LruByteCache<int> cache("ovsz_fit_test", /*byte_budget=*/4096);
  auto stored = cache.Put("k", 1, /*value_bytes=*/256);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Get("k"), nullptr);
}

}  // namespace
}  // namespace rq
