// Memory accounting tests (ctest label `memv1`, sanitize binary): the
// MemScope attribution semantics of common/mem.h and the ExecContext pot
// they charge, budget enforcement through the CheckExecContext() polling
// sites, the
// never-cache-truncated rule, the per-query profile memory section, the
// Prometheus rq_mem_* families, and the accounting-vs-RSS sanity bound.
// Budget tests use 1-byte budgets so the first charge crosses them —
// deterministic, no dependence on real construction sizes.
#include "common/mem.h"

#include <gtest/gtest.h>

#if !defined(_WIN32)
#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "cache/automata_cache.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "graph/generators.h"
#include "obs/counters.h"
#include "obs/mem_stats.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "pathquery/containment.h"
#include "pathquery/path_query.h"
#include "query/query.h"
#include "regex/regex.h"
#include "relational/cq.h"
#include "relational/incremental.h"
#include "rq/eval.h"
#include "rq/expand.h"
#include "rq/parser.h"

namespace rq {
namespace {

RegexPtr Parse(const std::string& text, Alphabet* alphabet) {
  auto parsed = ParseRegex(text, alphabet);
  RQ_CHECK(parsed.ok());
  return *parsed;
}

// A context bounding bytes only (budget 0 = unlimited).
ExecContext Budgeted(uint64_t budget_bytes,
                     const ExecContext* parent = nullptr) {
  return ExecContext(Deadline::Infinite(), /*cancel=*/nullptr, budget_bytes,
                     parent);
}

int64_t LiveBytes(MemSubsystem subsystem) {
  return obs::MemStats::Get()
      .subsystem_bytes[static_cast<size_t>(subsystem)]
      ->value();
}

TEST(MemSubsystemTest, NamesMatchGaugeVocabulary) {
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kAutomata), "automata");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kFold), "fold");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kComplement), "complement");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kRq), "rq");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kDatalog), "datalog");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kGraph), "graph");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kCache), "cache");
  EXPECT_STREQ(MemSubsystemName(MemSubsystem::kOther), "other");
}

TEST(MemScopeTest, ChargeAttributesToInnermostAndReleasesOnExit) {
  int64_t fold_before = LiveBytes(MemSubsystem::kFold);
  int64_t rq_before = LiveBytes(MemSubsystem::kRq);
  {
    MemScope outer(MemSubsystem::kFold);
    MemCharge(1000);
    EXPECT_EQ(LiveBytes(MemSubsystem::kFold), fold_before + 1000);
    {
      MemScope inner(MemSubsystem::kRq);
      MemCharge(500);
      EXPECT_EQ(LiveBytes(MemSubsystem::kRq), rq_before + 500);
      EXPECT_EQ(inner.net_bytes(), 500);
    }
    // Inner scope released its net; outer's charge is still live.
    EXPECT_EQ(LiveBytes(MemSubsystem::kRq), rq_before);
    EXPECT_EQ(LiveBytes(MemSubsystem::kFold), fold_before + 1000);
    EXPECT_EQ(outer.net_bytes(), 1000);
  }
  EXPECT_EQ(LiveBytes(MemSubsystem::kFold), fold_before);
}

TEST(MemScopeTest, NegativeChargeReducesNet) {
  int64_t before = LiveBytes(MemSubsystem::kDatalog);
  {
    MemScope scope(MemSubsystem::kDatalog);
    MemCharge(800);
    MemCharge(-300);
    EXPECT_EQ(scope.net_bytes(), 500);
    EXPECT_EQ(LiveBytes(MemSubsystem::kDatalog), before + 500);
  }
  EXPECT_EQ(LiveBytes(MemSubsystem::kDatalog), before);
}

TEST(MemScopeTest, ChargeWithoutScopeLandsInOther) {
  int64_t before = LiveBytes(MemSubsystem::kOther);
  MemCharge(64);
  EXPECT_EQ(LiveBytes(MemSubsystem::kOther), before + 64);
  MemCharge(-64);
  EXPECT_EQ(LiveBytes(MemSubsystem::kOther), before);
}

TEST(MemAccountingTest, ChargesTrackSubsystemsAndPeaks) {
  ExecContext ctx;
  ScopedExecContext scoped(&ctx);
  {
    MemScope scope(MemSubsystem::kComplement);
    MemCharge(2048);
    EXPECT_EQ(ctx.subsystem_bytes(MemSubsystem::kComplement), 2048u);
    EXPECT_EQ(ctx.total_bytes(), 2048u);
  }
  // Scope release returns live bytes to zero; peaks persist.
  EXPECT_EQ(ctx.subsystem_bytes(MemSubsystem::kComplement), 0u);
  EXPECT_EQ(ctx.total_bytes(), 0u);
  EXPECT_EQ(ctx.peak_subsystem_bytes(MemSubsystem::kComplement), 2048u);
  EXPECT_EQ(ctx.peak_total_bytes(), 2048u);
}

TEST(MemAccountingTest, NoInstalledContextIsOk) {
  EXPECT_TRUE(CheckExecContext().ok());
}

TEST(MemAccountingTest, BudgetTripLatchesAndBumpsCounterOnce) {
  obs::CounterDelta delta;
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  EXPECT_TRUE(ctx.Check().ok());  // under budget until a charge crosses it
  MemCharge(4096);
  MemCharge(-4096);
  EXPECT_TRUE(ctx.exceeded());  // sticky: crossing latches even after release
  Status first = CheckExecContext();
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
  Status second = CheckExecContext();
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(delta.Delta("mem.budget_exceeded"), 1u);
}

TEST(MemAccountingTest, ChildOfSharesPotAndBudget) {
  ExecContext parent = Budgeted(1);
  ExecContext child = ExecContext::ChildOf(&parent);
  {
    ScopedExecContext scoped(&child);
    MemCharge(100);
  }
  EXPECT_EQ(parent.peak_total_bytes(), 100u);
  EXPECT_TRUE(parent.exceeded());
  // The mirror observes the shared trip with a fresh latch of its own.
  EXPECT_EQ(child.Check().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(parent.Check().code(), StatusCode::kResourceExhausted);
  ExecContext orphan = ExecContext::ChildOf(nullptr);
  EXPECT_FALSE(orphan.has_budget());
  EXPECT_EQ(orphan.total_bytes(), 0u);
}

TEST(MemAccountingTest, ParentChainReceivesChargesAndEnforcesBudget) {
  ExecContext batch_wide = Budgeted(1);
  ExecContext job = Budgeted(0, &batch_wide);
  ScopedExecContext scoped(&job);
  MemCharge(64);
  // The job has no budget of its own, but the chained batch-wide budget
  // still stops it.
  EXPECT_EQ(batch_wide.total_bytes(), 64u);
  EXPECT_TRUE(job.exceeded());
  EXPECT_EQ(job.Check().code(), StatusCode::kResourceExhausted);
  MemCharge(-64);
}

TEST(MemAccountingTest, DurableChargesSkipContextAndBudget) {
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  int64_t before = LiveBytes(MemSubsystem::kCache);
  MemChargeDurable(MemSubsystem::kCache, 1 << 20);
  // Global gauge moved; the installed context saw nothing.
  EXPECT_EQ(LiveBytes(MemSubsystem::kCache), before + (1 << 20));
  EXPECT_EQ(ctx.total_bytes(), 0u);
  EXPECT_FALSE(ctx.exceeded());
  EXPECT_TRUE(ctx.Check().ok());
  MemReleaseDurable(MemSubsystem::kCache, 1 << 20);
  EXPECT_EQ(LiveBytes(MemSubsystem::kCache), before);
}

TEST(MemAccountingTest, ScopeRestoresPreviousContext) {
  ExecContext outer;
  ScopedExecContext outer_scope(&outer);
  EXPECT_EQ(ExecContext::Current(), &outer);
  {
    ExecContext inner;
    ScopedExecContext inner_scope(&inner);
    EXPECT_EQ(ExecContext::Current(), &inner);
  }
  EXPECT_EQ(ExecContext::Current(), &outer);
}

// --- Propagation through the decision procedures -------------------------

TEST(MemBudgetPropagationTest, TwoWayFoldPipelineReturnsResourceExhausted) {
  Alphabet alphabet;
  RegexPtr q1 = Parse("p", &alphabet);
  RegexPtr q2 = Parse("p p- p", &alphabet);
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  PathContainmentResult result =
      CheckPathQueryContainment(*q1, *q2, alphabet);
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx.exceeded());
}

TEST(MemBudgetPropagationTest, DatalogEvalReturnsResourceExhausted) {
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
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  auto result = EvalDatalogGoal(*program, db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MemBudgetPropagationTest, RqExpansionReturnsResourceExhausted) {
  auto query = ParseRq("q(x,y) := tc[x,y](a(x,y) & b(x,y))");
  ASSERT_TRUE(query.ok());
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  RqExpandLimits limits;
  auto result = ExpandRq(*query, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// The eval entry points charge their answers and intermediates, so a
// budget trip is reported as the error, never as an Ok answer.
GraphDb KnowsChain() {
  return GraphDb::FromText("a knows b\nb knows c\nc knows d\n").value();
}

TEST(MemBudgetPropagationTest, RqEvalReturnsResourceExhausted) {
  auto query = ParseRq("q(x,y) := tc[x,y](knows(x,y))");
  ASSERT_TRUE(query.ok());
  Database db = GraphToDatabase(KnowsChain());
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  auto result = EvalRqQuery(db, *query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MemBudgetPropagationTest, Uc2RpqEvalReturnsResourceExhausted) {
  GraphDb graph = KnowsChain();
  auto query = ParseUc2Rpq("q(x,y) :- (knows+)(x,y)", &graph.alphabet());
  ASSERT_TRUE(query.ok());
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  auto result = EvalUc2Rpq(graph, *query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MemBudgetPropagationTest, UcqEvalReturnsResourceExhausted) {
  auto query = ParseUcq("q(x,z) :- knows(x,y), knows(y,z)");
  ASSERT_TRUE(query.ok());
  Database db = GraphToDatabase(KnowsChain());
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  auto result = EvalUcq(db, *query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// A knows chain of `n` nodes: all-pairs `knows+` spans ceil(n / 64)
// lanes, and the early lanes (the lowest sources) answer the most pairs.
EvalTarget LongKnowsChain(int n) {
  std::string text;
  for (int i = 0; i + 1 < n; ++i) {
    text += "n" + std::to_string(i) + " knows n" + std::to_string(i + 1) + "\n";
  }
  return EvalTarget(
      std::make_shared<const GraphDb>(GraphDb::FromText(text).value()));
}

TEST(MemBudgetPropagationTest, PathEvalReturnsResourceExhausted) {
  EvalTarget target = LongKnowsChain(200);
  auto query = ParseQuery("path", "knows+", target.graph->alphabet());
  ASSERT_TRUE(query.ok());
  ExecContext ctx = Budgeted(1);
  ScopedExecContext scoped(&ctx);
  EXPECT_TRUE(
      EvalPathQuery(*target.snapshot, *std::get<PathQuery>(*query).regex)
          .empty());
  auto rows = Evaluate(*query, target);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
}

// The answer is charged lane by lane: a budget half the unbounded peak
// lets the first lanes emit and stops the kernel partway, with no rows.
TEST(MemBudgetPropagationTest, PathEvalTripsAfterSomeLanesEmitted) {
  constexpr int kNodes = 640;  // ten lanes
  EvalTarget target = LongKnowsChain(kNodes);
  auto query = ParseQuery("path", "knows+", target.graph->alphabet());
  ASSERT_TRUE(query.ok());
  uint64_t unbounded_peak = 0;
  {
    ExecContext ctx;
    ScopedExecContext scoped(&ctx);
    auto rows = Evaluate(*query, target);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows, static_cast<size_t>(kNodes * (kNodes - 1) / 2));
    unbounded_peak = ctx.peak_subsystem_bytes(MemSubsystem::kGraph);
  }
  ExecContext ctx = Budgeted(unbounded_peak / 2);
  ScopedExecContext scoped(&ctx);
  obs::CounterDelta delta;
  auto rows = Evaluate(*query, target);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  // Lane 0 alone answers 64 * 639 - 2016 pairs; it was placed and charged
  // before the trip, and the lanes after the trip never ran.
  const uint64_t lane0_bytes =
      (64 * (kNodes - 1) - 2016) * sizeof(std::pair<NodeId, NodeId>);
  EXPECT_GT(ctx.peak_subsystem_bytes(MemSubsystem::kGraph), lane0_bytes);
  EXPECT_GT(delta.Delta("graph.evals"), 64u);
  EXPECT_LT(delta.Delta("graph.evals"), static_cast<uint64_t>(kNodes));
}

// ASan and TSan reserve terabytes of shadow address space, so RLIMIT_AS
// cannot bound what the program itself may map under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RQ_SHADOW_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RQ_SHADOW_SANITIZER 1
#endif
#endif

// The bytes of address space the process maps now (/proc/self/statm).
size_t MappedBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  statm >> pages;
  return pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

// The address space one new thread's stack maps.
size_t ThreadStackBytes() {
  size_t stack = size_t{8} << 20;
  pthread_attr_t attr;
  if (pthread_attr_init(&attr) == 0) {
    pthread_attr_getstacksize(&attr, &stack);
    pthread_attr_destroy(&attr);
  }
  return stack;
}

// Address space for four pool threads' stacks, plus 64 MB.
size_t WorkerHeadroom() { return (size_t{64} << 20) + 4 * ThreadStackBytes(); }

// An unbudgeted eval whose lane scratch the allocator cannot give gets
// resource_exhausted, at jobs 1 (the scratch on the caller's thread) and
// at jobs 4 (on pool threads), and the process lives. The child runs
// under RLIMIT_AS with room for four worker stacks, not for one worker's
// 16 * 200k * 101-byte masks (323 MB). It keeps malloc to one arena: a
// pool thread's own arena reserves 64 MB or more of address space, which
// would leave the next thread no room for its stack.
TEST(MemAllocationFailureTest, KernelScratchFailureIsResourceExhausted) {
#ifdef RQ_SHADOW_SANITIZER
  GTEST_SKIP() << "ASan and TSan shadow reservations defeat RLIMIT_AS";
#endif
  auto db = std::make_shared<GraphDb>();
  for (int i = 0; i < 200'000; ++i) db->AddNode();
  for (NodeId i = 0; i + 1 < 1000; ++i) db->AddEdge(i, "a", i + 1);
  EvalTarget target(std::move(db));
  std::string chain = "a";
  for (int i = 1; i < 100; ++i) chain += " a";
  auto query = ParseQuery("path", chain, target.graph->alphabet());
  ASSERT_TRUE(query.ok());
  ASSERT_LT(WorkerHeadroom(), size_t{16} * 200'000 * 101);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    mallopt(M_ARENA_MAX, 1);
    const rlim_t cap = MappedBytes() + WorkerHeadroom();
    const rlimit limit{cap, cap};
    if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(2);
    for (unsigned jobs : {1u, 4u}) {
      SetDefaultParallelJobs(jobs);
      ExecContext ctx;
      ScopedExecContext scoped(&ctx);
      Result<SortedRows> rows = Evaluate(*query, target);
      if (rows.ok() ||
          rows.status().code() != StatusCode::kResourceExhausted) {
        _exit(10 + static_cast<int>(jobs));
      }
    }
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child died, status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: setrlimit failed; 11/14: no resource_exhausted at jobs 1/4";
}

// Lowers the soft RLIMIT_AS to what the process maps now plus `headroom`.
bool CapAddressSpace(size_t headroom) {
  rlimit limit{};
  if (getrlimit(RLIMIT_AS, &limit) != 0) return false;
  limit.rlim_cur = MappedBytes() + headroom;
  return setrlimit(RLIMIT_AS, &limit) == 0;
}

// Whether one more thread starts now.
bool ThreadStarts() {
  try {
    std::jthread probe([] {});
    return true;
  } catch (const std::system_error&) {
    return false;
  }
}

// A pool thread the system cannot start costs parallelism, not the
// process: at jobs 4 a five-lane eval still answers the jobs-1 rows when
// no pool thread can start (the caller drains the lanes) and when one can
// (it drains them). The child first leaves room for half a thread stack,
// then for one and a half; each probe thread confirms the limit bites.
// It keeps malloc to one arena, as above.
TEST(MemAllocationFailureTest, PoolThreadsThatCannotStartLeaveTheWorkInline) {
#ifdef RQ_SHADOW_SANITIZER
  GTEST_SKIP() << "ASan and TSan shadow reservations defeat RLIMIT_AS";
#endif
  auto db = std::make_shared<GraphDb>(
      RandomGraph(300, 600, {"a", "b"}, /*seed=*/2026));
  EvalTarget target(std::move(db));
  auto query = ParseQuery("path", "a b- | b+", target.graph->alphabet());
  ASSERT_TRUE(query.ok());
  SetDefaultParallelJobs(1);
  Result<SortedRows> serial = Evaluate(*query, target);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->rows, 0u);
  const size_t stack = ThreadStackBytes();
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    mallopt(M_ARENA_MAX, 1);
    SetDefaultParallelJobs(4);
    try {
      if (!CapAddressSpace(stack / 2)) _exit(2);
      if (ThreadStarts()) _exit(3);
      Result<SortedRows> none_started = Evaluate(*query, target);
      if (!none_started.ok() || none_started->values != serial->values) {
        _exit(10);
      }
      if (!CapAddressSpace(stack + stack / 2)) _exit(2);
      if (!ThreadStarts()) _exit(3);
      Result<SortedRows> one_started = Evaluate(*query, target);
      if (!one_started.ok() || one_started->values != serial->values) {
        _exit(11);
      }
    } catch (...) {
      _exit(12);
    }
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child died, status " << status;
  if (WEXITSTATUS(status) == 3) {
    GTEST_SKIP() << "the address-space limit did not decide whether a "
                    "thread starts (cached thread stacks?)";
  }
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: setrlimit failed; 10/11: wrong rows with no/one pool thread; "
         "12: an exception escaped Evaluate";
}

// One byte model: a seeded closure holds RelationRowBytes(2) per stored
// pair, base plus closure, in mem.incr_bytes.
TEST(MemAccountingTest, SeededClosureChargesRowBytesForBaseAndClosure) {
  Relation base(2);
  for (Value i = 0; i < 40; ++i) base.Insert({i, i + 1});
  Relation closure = BinaryTransitiveClosure(base);
  const size_t pairs = base.size() + closure.size();
  const int64_t before = LiveBytes(MemSubsystem::kIncr);
  {
    IncrementalClosure inc;
    inc.Seed(base, closure);
    EXPECT_EQ(inc.ApproxBytes(), pairs * RelationRowBytes(2));
    EXPECT_EQ(LiveBytes(MemSubsystem::kIncr) - before,
              static_cast<int64_t>(pairs * RelationRowBytes(2)));
    // One edge closing the chain into a cycle: the charge follows the
    // stored pairs.
    ASSERT_TRUE(inc.AddEdge(40, 0).ok());
    EXPECT_EQ(LiveBytes(MemSubsystem::kIncr) - before,
              static_cast<int64_t>((inc.base().size() +
                                    inc.closure().size()) *
                                   RelationRowBytes(2)));
  }
  EXPECT_EQ(LiveBytes(MemSubsystem::kIncr), before);
}

TEST(MemBudgetPropagationTest, UnlimitedContextStillAttributes) {
  Alphabet alphabet;
  RegexPtr q1 = Parse("p", &alphabet);
  RegexPtr q2 = Parse("p p- p", &alphabet);
  ExecContext ctx;  // no bounds: pure attribution
  ScopedExecContext scoped(&ctx);
  PathContainmentResult result =
      CheckPathQueryContainment(*q1, *q2, alphabet);
  EXPECT_TRUE(result.status.ok());
  // The fold pipeline charges fold-tagged bytes against the context.
  EXPECT_GT(ctx.peak_total_bytes(), 0u);
  EXPECT_GT(ctx.peak_subsystem_bytes(MemSubsystem::kFold), 0u);
}

TEST(MemBudgetPropagationTest, TruncatedByMemoryIsNeverCached) {
  cache::AutomataCache& ac = cache::AutomataCache::Global();
  ac.SetEnabled(true);
  ac.Clear();
  Alphabet alphabet;
  RegexPtr q1 = Parse("p", &alphabet);
  RegexPtr q2 = Parse("p (p- p)*", &alphabet);
  {
    ExecContext ctx = Budgeted(1);
    ScopedExecContext scoped(&ctx);
    PathContainmentResult truncated =
        CheckPathQueryContainment(*q1, *q2, alphabet);
    ASSERT_EQ(truncated.status.code(), StatusCode::kResourceExhausted);
  }
  // The poisoned run must not have memoized a verdict: the clean re-run
  // gets a real one.
  obs::CounterDelta delta;
  PathContainmentResult clean =
      CheckPathQueryContainment(*q1, *q2, alphabet);
  EXPECT_TRUE(clean.status.ok());
  EXPECT_TRUE(clean.contained);
  EXPECT_EQ(delta.Delta("cache.verdict_hits"), 0u);
  ac.SetEnabled(false);
  ac.Clear();
}

// --- Observability surfaces ----------------------------------------------

TEST(MemObsTest, ProfileReportsMemorySection) {
  ExecContext ctx;
  ScopedExecContext scoped(&ctx);
  obs::QueryProfile profile;
  profile.Begin("test", "mem", "profile-memory", &ctx);
  {
    MemScope scope(MemSubsystem::kAutomata);
    MemCharge(4096);
  }
  profile.End();
  const obs::ProfileMemory& memory = profile.memory();
  ASSERT_TRUE(memory.present);
  EXPECT_GE(memory.peak_total_bytes, 4096u);
  EXPECT_GE(memory.peak_subsystem_bytes[static_cast<size_t>(
                MemSubsystem::kAutomata)],
            4096u);
  EXPECT_FALSE(memory.exceeded);
  std::string json = profile.ToJson().Dump(0);
  EXPECT_NE(json.find("\"memory\""), std::string::npos);
  EXPECT_NE(json.find("\"automata\""), std::string::npos);
  std::string text = profile.ToText();
  EXPECT_NE(text.find("memory (peak bytes, this query):"),
            std::string::npos);
}

TEST(MemObsTest, ProfileOmitsMemorySectionWithoutContext) {
  obs::QueryProfile profile;
  profile.Begin("test", "mem", "no-context");
  profile.End();
  EXPECT_FALSE(profile.memory().present);
  EXPECT_EQ(profile.ToJson().Dump(0).find("\"memory\""),
            std::string::npos);
}

TEST(MemObsTest, PrometheusCarriesMemFamilies) {
  {
    MemScope scope(MemSubsystem::kFold);
    MemCharge(1234);
  }
  std::string text = obs::RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE rq_mem_fold_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("rq_mem_fold_bytes_peak"), std::string::npos);
  EXPECT_NE(text.find("rq_mem_tracked_bytes"), std::string::npos);
  EXPECT_NE(text.find("rq_mem_peak_rss_bytes"), std::string::npos);
  EXPECT_NE(text.find("# HELP rq_mem_fold_bytes mem.fold_bytes"),
            std::string::npos);
}

TEST(MemObsTest, AccountingNeverExceedsRss) {
  // Hold a live charge while sampling so the bound is non-trivial, then
  // assert the self-reported total is within the OS's peak-RSS view —
  // the accountant tracks a subset of real allocations, so tracked <= RSS.
  MemScope scope(MemSubsystem::kGraph);
  MemCharge(1 << 20);
  uint64_t rss = obs::SampleRssGauge();
  if (rss == 0) GTEST_SKIP() << "getrusage unsupported here";
  int64_t tracked = obs::MemStats::Get().tracked_bytes.value();
  EXPECT_GT(tracked, 0);
  EXPECT_LE(static_cast<uint64_t>(tracked), rss);
  EXPECT_EQ(obs::MemStats::Get().peak_rss_bytes.value(),
            static_cast<int64_t>(rss));
}

TEST(MemObsTest, RuMaxRssScalingIsPlatformGated) {
  // Regression for the unconditional `* 1024`: ru_maxrss is kilobytes on
  // Linux but ALREADY bytes on macOS/BSD, so scaling must depend on the
  // unit. The pre-fix code inflated the bytes-unit reading 1024x, which
  // made AccountingNeverExceedsRss vacuous off-Linux.
  EXPECT_EQ(obs::RuMaxRssToBytes(5, obs::RuMaxRssUnit::kKilobytes), 5120u);
  EXPECT_EQ(obs::RuMaxRssToBytes(5, obs::RuMaxRssUnit::kBytes), 5u);
#if defined(__linux__)
  EXPECT_EQ(obs::kPlatformRuMaxRssUnit, obs::RuMaxRssUnit::kKilobytes);
#elif defined(__APPLE__)
  EXPECT_EQ(obs::kPlatformRuMaxRssUnit, obs::RuMaxRssUnit::kBytes);
#endif
  // The sampled gauge must agree with the helper applied to the raw
  // platform reading — i.e. SampleRssGauge applies exactly one scaling.
  uint64_t sampled = obs::SampleRssGauge();
  if (sampled == 0) GTEST_SKIP() << "getrusage unsupported here";
  struct rusage usage;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_GE(obs::RuMaxRssToBytes(static_cast<uint64_t>(usage.ru_maxrss)),
            sampled);
}

TEST(MemObsTest, AllocHistogramRecordsPositiveChargesOnly) {
  uint64_t before = obs::MemStats::Get().alloc_bytes.count();
  {
    MemScope scope(MemSubsystem::kRq);
    MemCharge(512);
  }
  // One positive charge recorded; the scope's release did not.
  EXPECT_EQ(obs::MemStats::Get().alloc_bytes.count(), before + 1);
}

}  // namespace
}  // namespace rq
