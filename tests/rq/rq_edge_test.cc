// Edge cases of the RQ algebra: boolean (0-ary) queries, deep nesting,
// selection/projection interactions, and SubstituteFreeVars hygiene.
#include <gtest/gtest.h>

#include <string>

#include "datalog/eval.h"
#include "datalog/program.h"
#include "relational/cq.h"
#include "rq/eval.h"
#include "rq/parser.h"

namespace rq {
namespace {

RqQuery Parse(const std::string& text) {
  auto q = ParseRq(text);
  RQ_CHECK(q.ok());
  return *q;
}

Database EdgeDb(const std::string& name,
                const std::vector<std::pair<Value, Value>>& edges) {
  Database db;
  Relation* e = db.GetOrCreate(name, 2).value();
  for (const auto& [x, y] : edges) e->Insert({x, y});
  return db;
}

TEST(RqEdgeTest, ProjectionToSingleColumn) {
  Database db = EdgeDb("r", {{1, 2}, {3, 4}});
  Relation out = EvalRqQuery(db, Parse("q(x) := exists[y](r(x, y))")).value();
  EXPECT_EQ(out.SortedTuples(), (std::vector<Tuple>{{1}, {3}}));
}

TEST(RqEdgeTest, SelectionThenProjection) {
  Database db = EdgeDb("r", {{1, 1}, {1, 2}, {3, 3}});
  Relation out =
      EvalRqQuery(db, Parse("q(x) := exists[y](eq[x,y](r(x, y)))")).value();
  EXPECT_EQ(out.SortedTuples(), (std::vector<Tuple>{{1}, {3}}));
}

TEST(RqEdgeTest, DeeplyNestedClosures) {
  // tc(tc(r) ∘ tc(r)) — nested closures compose.
  Database db = EdgeDb("r", {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  RqQuery q = Parse(
      "q(x, y) := tc[x,y](exists[m](tc[x,m](r(x, m)) & tc[m,y](r(m, y))))");
  Relation out = EvalRqQuery(db, q).value();
  // Any pair at distance >= 2 (each step of the outer closure needs two
  // nonempty inner hops); the closure then reaches distance >= 2 pairs.
  EXPECT_TRUE(out.Contains({0, 2}));
  EXPECT_TRUE(out.Contains({0, 4}));
  EXPECT_TRUE(out.Contains({0, 3}));
  EXPECT_FALSE(out.Contains({0, 1}));
  EXPECT_FALSE(out.Contains({1, 0}));
}

TEST(RqEdgeTest, UnionOfDifferentShapes) {
  Database db;
  db.GetOrCreate("r", 2).value()->Insert({1, 2});
  db.GetOrCreate("s", 2).value()->Insert({2, 9});
  RqQuery q =
      Parse("q(x, y) := r(x, y) | exists[m](r(x, m) & s(m, y))");
  Relation out = EvalRqQuery(db, q).value();
  EXPECT_TRUE(out.Contains({1, 2}));
  EXPECT_TRUE(out.Contains({1, 9}));
  EXPECT_EQ(out.size(), 2u);
}

TEST(RqEdgeTest, SubstituteFreshensBoundVariables) {
  RqQuery q = Parse("q(x, z) := exists[y](r(x, y) & s(y, z))");
  uint32_t next = q.root->MaxVarIdPlus1();
  // Substitute x -> z's id to force potential capture; bound y must be
  // renamed away so the result stays well-formed.
  VarId x = q.head[0];
  VarId z = q.head[1];
  RqExprPtr substituted = SubstituteFreeVars(q.root, {{x, z}}, &next);
  // Free vars collapse to {z}.
  EXPECT_EQ(substituted->FreeVars(), (std::vector<VarId>{z}));
  // And evaluation works: pairs where both endpoints coincide.
  Database db;
  db.GetOrCreate("r", 2).value()->Insert({1, 5});
  db.GetOrCreate("s", 2).value()->Insert({5, 1});
  RqQuery collapsed;
  collapsed.root = substituted;
  collapsed.head = {z};
  Relation out = EvalRqQuery(db, collapsed).value();
  EXPECT_EQ(out.SortedTuples(), (std::vector<Tuple>{{1}}));
}

TEST(RqEdgeTest, ComposeBinaryBuildsComposition) {
  uint32_t next = 10;
  RqExprPtr r = RqExpr::Atom("r", {0, 1});
  RqExprPtr s = RqExpr::Atom("s", {0, 1});
  RqExprPtr composed = ComposeBinary(r, s, &next);
  EXPECT_EQ(composed->FreeVars(), (std::vector<VarId>{0, 1}));
  Database db;
  db.GetOrCreate("r", 2).value()->Insert({1, 2});
  db.GetOrCreate("s", 2).value()->Insert({2, 3});
  db.GetOrCreate("s", 2).value()->Insert({4, 5});
  RqQuery q;
  q.root = composed;
  q.head = {0, 1};
  Relation out = EvalRqQuery(db, q).value();
  EXPECT_EQ(out.SortedTuples(), (std::vector<Tuple>{{1, 3}}));
}

TEST(RqEdgeTest, EvalRespectsEmptyRelations) {
  Database db;
  db.GetOrCreate("r", 2).value();  // present but empty
  Relation out = EvalRqQuery(db, Parse("q(x, y) := tc[x,y](r(x, y))")).value();
  EXPECT_TRUE(out.empty());
}

TEST(RqEdgeTest, ExpressionSizeAndPredicates) {
  RqQuery q = Parse(
      "q(x, y) := tc[x,y](exists[z](a(x, z) & b(z, y))) | c(x, y)");
  EXPECT_EQ(q.root->Predicates(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(q.root->UsesClosure());
  EXPECT_GE(q.root->Size(), 6u);
}

// Evaluation-time errors that name a relation quote a short excerpt of
// it: a graph label of 100,000 bytes makes each of them under 200 bytes.
TEST(RqEdgeTest, EvalErrorsQuoteAShortRelationName) {
  const std::string label(100'000, 'l');
  const Database db = GraphToDatabase(
      GraphDb::FromText("a " + label + " b\n").value());
  std::vector<Status> errors;
  auto rq_atom = ParseRq("q(x) := " + label + "(x)");
  ASSERT_TRUE(rq_atom.ok());
  errors.push_back(EvalRqQuery(db, *rq_atom).status());
  auto rq_join = ParseRq("q(x) := " + label + "(x) & " + label + "(x, x)");
  ASSERT_TRUE(rq_join.ok());
  errors.push_back(EvalRqQuery(db, *rq_join).status());
  auto cq = ParseCq("q(x) :- " + label + "(x)");
  ASSERT_TRUE(cq.ok());
  errors.push_back(EvalCq(db, *cq).status());
  auto frozen = ParseCq("q(x) :- " + label + "(x, x)");
  ASSERT_TRUE(frozen.ok());
  errors.push_back(CqContainmentWitness(*frozen, *cq).status());
  auto idb = ParseDatalog(label + "(X, Y) :- " + label + "(Y, X).\n?- " +
                          label + ".");
  ASSERT_TRUE(idb.ok());
  errors.push_back(EvalDatalogGoal(*idb, db).status());
  auto edb = ParseDatalog("p(X) :- " + label + "(X).\n?- p.");
  ASSERT_TRUE(edb.ok());
  errors.push_back(EvalDatalogGoal(*edb, db).status());
  Database fresh;
  ASSERT_TRUE(fresh.GetOrCreate(label, 2).ok());
  errors.push_back(fresh.GetOrCreate(label, 1).status());
  for (const Status& error : errors) {
    EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
    EXPECT_LT(error.ToString().size(), 200u)
        << error.ToString().substr(0, 300);
  }
}

}  // namespace
}  // namespace rq
