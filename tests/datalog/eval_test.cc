#include "datalog/eval.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "rq/eval.h"

namespace rq {
namespace {

DatalogProgram Parse(const std::string& text) {
  auto p = ParseDatalog(text);
  RQ_CHECK(p.ok());
  return *p;
}

constexpr char kTc[] = R"(
  tc(X, Y) :- edge(X, Y).
  tc(X, Z) :- tc(X, Y), edge(Y, Z).
  ?- tc.
)";

Database EdgeDb(const std::vector<std::pair<Value, Value>>& edges) {
  Database db;
  Relation* e = db.GetOrCreate("edge", 2).value();
  for (const auto& [x, y] : edges) e->Insert({x, y});
  return db;
}

TEST(DatalogEvalTest, TransitiveClosureOnChain) {
  Database db = EdgeDb({{1, 2}, {2, 3}, {3, 4}});
  Relation tc = EvalDatalogGoal(Parse(kTc), db).value();
  EXPECT_EQ(tc.size(), 6u);
  EXPECT_TRUE(tc.Contains({1, 4}));
  EXPECT_FALSE(tc.Contains({4, 1}));
}

TEST(DatalogEvalTest, TransitiveClosureOnCycle) {
  Database db = EdgeDb({{1, 2}, {2, 3}, {3, 1}});
  Relation tc = EvalDatalogGoal(Parse(kTc), db).value();
  EXPECT_EQ(tc.size(), 9u);  // complete on the cycle
}

TEST(DatalogEvalTest, NaiveAndSemiNaiveAgree) {
  Rng rng(5150);
  for (int round = 0; round < 10; ++round) {
    GraphDb graph = RandomGraph(12, 25, {"edge"}, rng.Next());
    Database db = GraphToDatabase(graph);
    DatalogProgram p = Parse(kTc);
    Relation naive =
        EvalDatalogGoal(p, db, DatalogEvalMode::kNaive).value();
    Relation semi =
        EvalDatalogGoal(p, db, DatalogEvalMode::kSemiNaive).value();
    EXPECT_EQ(naive.SortedTuples(), semi.SortedTuples());
  }
}

TEST(DatalogEvalTest, SemiNaiveDoesLessWork) {
  GraphDb graph = PathGraph(60, "edge");
  Database db = GraphToDatabase(graph);
  DatalogProgram p = Parse(kTc);
  DatalogEvalStats naive_stats, semi_stats;
  EvalDatalogGoal(p, db, DatalogEvalMode::kNaive, &naive_stats).value();
  EvalDatalogGoal(p, db, DatalogEvalMode::kSemiNaive, &semi_stats).value();
  // The classic gap: naive reconsiders every derived tuple every round.
  EXPECT_GT(naive_stats.tuples_considered,
            4 * semi_stats.tuples_considered);
}

TEST(DatalogEvalTest, SameGenerationProgram) {
  // sg(X, Y): X and Y are at the same depth below a common ancestor.
  DatalogProgram p = Parse(R"(
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
    ?- sg.
  )");
  Database db;
  Relation* up = db.GetOrCreate("up", 2).value();
  Relation* down = db.GetOrCreate("down", 2).value();
  Relation* flat = db.GetOrCreate("flat", 2).value();
  // Tree: 1 -> {2, 3}; 2 -> {4}; 3 -> {5}. up = child->parent.
  up->Insert({2, 1});
  up->Insert({3, 1});
  up->Insert({4, 2});
  up->Insert({5, 3});
  down->Insert({1, 2});
  down->Insert({1, 3});
  down->Insert({2, 4});
  down->Insert({3, 5});
  flat->Insert({1, 1});
  Relation sg = EvalDatalogGoal(p, db).value();
  EXPECT_TRUE(sg.Contains({2, 3}));  // siblings
  EXPECT_TRUE(sg.Contains({4, 5}));  // cousins
  EXPECT_FALSE(sg.Contains({2, 5}));  // different depths? no: 2 depth1,
                                      // 5 depth2 -> not same generation
}

TEST(DatalogEvalTest, MutualRecursionEvenOddDistance) {
  DatalogProgram p = Parse(R"(
    even(X, X) :- node(X, X).
    even(X, Z) :- odd(X, Y), edge(Y, Z).
    odd(X, Z) :- even(X, Y), edge(Y, Z).
    ?- odd.
  )");
  Database db;
  Relation* node = db.GetOrCreate("node", 2).value();
  Relation* edge = db.GetOrCreate("edge", 2).value();
  for (Value v = 0; v < 5; ++v) node->Insert({v, v});
  for (Value v = 0; v + 1 < 5; ++v) edge->Insert({v, v + 1});
  Relation odd = EvalDatalogGoal(p, db).value();
  EXPECT_TRUE(odd.Contains({0, 1}));
  EXPECT_TRUE(odd.Contains({0, 3}));
  EXPECT_FALSE(odd.Contains({0, 2}));
  EXPECT_FALSE(odd.Contains({0, 0}));
}

TEST(DatalogEvalTest, NonrecursiveProgramSinglePass) {
  DatalogProgram p = Parse(R"(
    two(X, Z) :- e(X, Y), e(Y, Z).
    three(X, W) :- two(X, Z), e(Z, W).
    ?- three.
  )");
  Database db = EdgeDb({});
  db.GetOrCreate("e", 2).value()->Insert({1, 2});
  db.FindMutable("e")->Insert({2, 3});
  db.FindMutable("e")->Insert({3, 4});
  Relation three = EvalDatalogGoal(p, db).value();
  EXPECT_EQ(three.SortedTuples(), (std::vector<Tuple>{{1, 4}}));
}

TEST(DatalogEvalTest, GoalRequired) {
  DatalogProgram p = Parse("tc(X, Y) :- edge(X, Y).");
  Database db = EdgeDb({{1, 2}});
  EXPECT_FALSE(EvalDatalogGoal(p, db).ok());
}

TEST(DatalogEvalTest, IdbPredicateInEdbIsRejected) {
  DatalogProgram p = Parse(kTc);
  Database db = EdgeDb({{1, 2}});
  db.GetOrCreate("tc", 2).value()->Insert({9, 9});
  EXPECT_FALSE(EvalDatalogGoal(p, db).ok());
}

// The EDB is read in place: an eval leaves it exactly as it was, and no
// IDB relation appears in it.
TEST(DatalogEvalTest, EvalLeavesEdbUnchanged) {
  Database db = EdgeDb({{1, 2}, {2, 3}, {3, 1}, {3, 4}});
  db.GetOrCreate("unused", 3).value()->Insert({7, 8, 9});
  const std::string before = db.ToString();
  const std::vector<std::string> names = db.RelationNames();
  for (DatalogEvalMode mode :
       {DatalogEvalMode::kNaive, DatalogEvalMode::kSemiNaive}) {
    Relation tc = EvalDatalogGoal(Parse(kTc), db, mode).value();
    EXPECT_EQ(tc.size(), 12u);
    EXPECT_EQ(db.RelationNames(), names);
    EXPECT_EQ(db.Find("edge")->size(), 4u);
    EXPECT_EQ(db.Find("unused")->size(), 1u);
    EXPECT_EQ(db.Find("tc"), nullptr);
    EXPECT_EQ(db.ToString(), before);
  }
}

TEST(DatalogEvalTest, IdbNameSharedWithEmptyEdbRelationIsRejected) {
  DatalogProgram p = Parse(kTc);
  Database db = EdgeDb({{1, 2}});
  ASSERT_TRUE(db.GetOrCreate("tc", 2).ok());  // present, but empty
  auto result = EvalDatalogGoal(p, db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(db.Find("tc")->empty());
}

TEST(DatalogEvalTest, EdbArityMismatchIsRejected) {
  DatalogProgram p = Parse(kTc);
  Database db;
  db.GetOrCreate("edge", 3).value()->Insert({1, 2, 3});
  auto result = EvalDatalogGoal(p, db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatalogEvalTest, EmptyEdbGivesEmptyIdb) {
  DatalogProgram p = Parse(kTc);
  Database db;
  Relation tc = EvalDatalogGoal(p, db).value();
  EXPECT_TRUE(tc.empty());
}

TEST(DatalogEvalTest, SemiNaiveMatchesDirectTransitiveClosure) {
  Rng rng(8080);
  for (int round = 0; round < 8; ++round) {
    GraphDb graph = RandomGraph(15, 30, {"edge"}, rng.Next());
    Database db = GraphToDatabase(graph);
    Relation via_datalog = EvalDatalogGoal(Parse(kTc), db).value();
    Relation via_closure =
        BinaryTransitiveClosure(*db.Find("edge"));
    EXPECT_EQ(via_datalog.SortedTuples(), via_closure.SortedTuples());
  }
}

}  // namespace
}  // namespace rq
