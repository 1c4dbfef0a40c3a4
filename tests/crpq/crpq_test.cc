#include "crpq/crpq.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "pathquery/path_query.h"

namespace rq {
namespace {

class CrpqTest : public ::testing::Test {
 protected:
  Crpq Parse(const std::string& text) {
    auto q = ParseCrpq(text, &alphabet_);
    RQ_CHECK(q.ok());
    return *q;
  }
  Uc2Rpq ParseUnion(const std::string& text) {
    auto q = ParseUc2Rpq(text, &alphabet_);
    RQ_CHECK(q.ok());
    return *q;
  }
  Alphabet alphabet_;
};

TEST_F(CrpqTest, ParsesAtomsAndVariables) {
  Crpq q = Parse("q(x, y) :- (knows+)(x, z), (member)(z, y)");
  EXPECT_EQ(q.head.size(), 2u);
  EXPECT_EQ(q.atoms.size(), 2u);
  EXPECT_EQ(q.num_vars, 3u);
}

TEST_F(CrpqTest, RejectsMalformedQueries) {
  Alphabet a;
  EXPECT_FALSE(ParseCrpq("q(x, y) - (r)(x, y)", &a).ok());
  EXPECT_FALSE(ParseCrpq("q(x, y) :- (r)(x)", &a).ok());
  EXPECT_FALSE(ParseCrpq("q(x, w) :- (r)(x, y)", &a).ok());  // unsafe head
  EXPECT_FALSE(ParseCrpq("q(x, y) :- (r(x, y)", &a).ok());
}

TEST_F(CrpqTest, EvaluationJoinsAtomRelations) {
  GraphDb db;
  NodeId a = db.AddNode();
  NodeId b = db.AddNode();
  NodeId c = db.AddNode();
  NodeId d = db.AddNode();
  db.AddEdge(a, "knows", b);
  db.AddEdge(b, "knows", c);
  db.AddEdge(c, "member", d);
  Alphabet& alphabet = db.alphabet();
  auto q = ParseCrpq("q(x, y) :- (knows+)(x, z), (member)(z, y)", &alphabet);
  ASSERT_TRUE(q.ok());
  Relation answers = EvalCrpq(db, *q).value();
  EXPECT_EQ(answers.SortedTuples(),
            (std::vector<Tuple>{{a, d}, {b, d}}));
}

// The paper's Example 1 (§3.3): the triangle-ish pattern and its union.
TEST_F(CrpqTest, PaperExampleOneTrianglePattern) {
  GraphDb db;
  NodeId a = db.AddNode();
  NodeId b = db.AddNode();
  NodeId c = db.AddNode();
  db.AddEdge(a, "r", b);
  db.AddEdge(a, "r", c);
  db.AddEdge(b, "r", c);
  auto q1 =
      ParseCrpq("q(x, y) :- (r)(x, y), (r)(x, z), (r)(y, z)", &db.alphabet());
  ASSERT_TRUE(q1.ok());
  Relation answers = EvalCrpq(db, *q1).value();
  EXPECT_TRUE(answers.Contains({a, b}));
  EXPECT_FALSE(answers.Contains({b, a}));

  // Add the directed-cycle disjunct; a full cycle now also answers.
  GraphDb cycle;
  NodeId x = cycle.AddNode();
  NodeId y = cycle.AddNode();
  NodeId z = cycle.AddNode();
  cycle.AddEdge(x, "r", y);
  cycle.AddEdge(y, "r", z);
  cycle.AddEdge(z, "r", x);
  auto u = ParseUc2Rpq(
      "q(x, y) :- (r)(x, y), (r)(x, z), (r)(y, z)\n"
      "q(x, y) :- (r)(x, y), (r)(y, z), (r)(z, x)\n",
      &cycle.alphabet());
  ASSERT_TRUE(u.ok());
  Relation union_answers = EvalUc2Rpq(cycle, *u).value();
  EXPECT_TRUE(union_answers.Contains({x, y}));
}

TEST_F(CrpqTest, TwoWayAtomsEvaluateOverSemipaths) {
  GraphDb db;
  NodeId c1 = db.AddNode();
  NodeId c2 = db.AddNode();
  NodeId p = db.AddNode();
  db.AddEdge(c1, "parent", p);
  db.AddEdge(c2, "parent", p);
  auto q = ParseCrpq("q(x, y) :- (parent parent-)(x, y)", &db.alphabet());
  ASSERT_TRUE(q.ok());
  Relation siblings = EvalCrpq(db, *q).value();
  EXPECT_TRUE(siblings.Contains({c1, c2}));
  EXPECT_TRUE(siblings.Contains({c1, c1}));
  EXPECT_FALSE(siblings.Contains({c1, p}));
}

TEST_F(CrpqTest, SharedRegexesAreEvaluatedOnce) {
  // Not directly observable; assert correctness with repeated atoms.
  GraphDb db = PathGraph(4, "e");
  auto q = ParseCrpq("q(x, z) :- (e+)(x, y), (e+)(y, z)", &db.alphabet());
  ASSERT_TRUE(q.ok());
  Relation answers = EvalCrpq(db, *q).value();
  EXPECT_TRUE(answers.Contains({0, 2}));
  EXPECT_TRUE(answers.Contains({0, 3}));
  EXPECT_FALSE(answers.Contains({0, 1}));  // needs two nonempty hops
}

class CrpqContainmentTest : public CrpqTest {};

TEST_F(CrpqContainmentTest, SingleAtomDispatchUsesFoldPipeline) {
  Uc2Rpq q1 = ParseUnion("q(x, y) :- (p)(x, y)");
  Uc2Rpq q2 = ParseUnion("q(x, y) :- (p p- p)(x, y)");
  auto result = CheckUc2RpqContainment(q1, q2, alphabet_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->method, "2rpq-fold");
  EXPECT_EQ(result->certainty, Certainty::kProved);
}

TEST_F(CrpqContainmentTest, SwappedHeadUsesInverseExpression) {
  Uc2Rpq q1 = ParseUnion("q(x, y) :- (p)(y, x)");
  Uc2Rpq q2 = ParseUnion("q(x, y) :- (p-)(x, y)");
  auto result = CheckUc2RpqContainment(q1, q2, alphabet_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->certainty, Certainty::kProved);
}

TEST_F(CrpqContainmentTest, DroppingAtomsWeakens) {
  Uc2Rpq q1 = ParseUnion("q(x, y) :- (r)(x, y), (s)(x, z)");
  Uc2Rpq q2 = ParseUnion("q(x, y) :- (r)(x, y)");
  auto result = CheckUc2RpqContainment(q1, q2, alphabet_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->certainty, Certainty::kProved);
  EXPECT_EQ(result->method, "expansion-exact");

  auto reverse = CheckUc2RpqContainment(q2, q1, alphabet_);
  ASSERT_TRUE(reverse.ok());
  EXPECT_EQ(reverse->certainty, Certainty::kRefuted);
}

TEST_F(CrpqContainmentTest, FiniteLanguagesGiveExactVerdicts) {
  Uc2Rpq q1 = ParseUnion("q(x, y) :- (r r | r s)(x, y)");
  Uc2Rpq q2 = ParseUnion("q(x, y) :- (r (r | s))(x, y), (r)(x, z)");
  auto result = CheckUc2RpqContainment(q1, q2, alphabet_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->certainty, Certainty::kProved);
  EXPECT_EQ(result->method, "expansion-exact");
}

TEST_F(CrpqContainmentTest, RefutationCarriesCheckableGraph) {
  Uc2Rpq q1 = ParseUnion("q(x, y) :- (r r)(x, y)");
  Uc2Rpq q2 = ParseUnion("q(x, y) :- (r)(x, y)");
  auto result = CheckUc2RpqContainment(q1, q2, alphabet_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->certainty, Certainty::kRefuted);
  ASSERT_TRUE(result->counterexample.has_value());
  Relation a1 = EvalUc2Rpq(*result->counterexample, q1).value();
  Relation a2 = EvalUc2Rpq(*result->counterexample, q2).value();
  Tuple witness{result->witness_x, result->witness_y};
  EXPECT_TRUE(a1.Contains(witness));
  EXPECT_FALSE(a2.Contains(witness));
}

TEST_F(CrpqContainmentTest, EpsilonWordsMergeEndpoints) {
  // q1 with an optional atom: (r?)(x,z), (s)(z,y) ⊑ (r? s)(x, y). Both
  // sides are chains, so the fold decides it.
  Uc2Rpq q1 = ParseUnion("q(x, y) :- (r?)(x, z), (s)(z, y)");
  Uc2Rpq q2 = ParseUnion("q(x, y) :- (r? s)(x, y)");
  auto result = CheckUc2RpqContainment(q1, q2, alphabet_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->certainty, Certainty::kProved);
  EXPECT_EQ(result->method, "2rpq-fold");
  // The always-true side atom (s?)(y, y) keeps q1's meaning but not its
  // chain shape: the expansion test runs, and with r? empty its canonical
  // graph merges x and z; q2 must still answer.
  Uc2Rpq sided = ParseUnion("q(x, y) :- (r?)(x, z), (s)(z, y), (s?)(y, y)");
  auto expanded = CheckUc2RpqContainment(sided, q2, alphabet_);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->certainty, Certainty::kProved);
  EXPECT_EQ(expanded->method, "expansion-exact");
}

TEST_F(CrpqContainmentTest, InfiniteLanguagesAreBoundedButRefutable) {
  Uc2Rpq q1 = ParseUnion("q(x, y) :- (r+)(x, y), (s)(x, z)");
  Uc2Rpq q2 = ParseUnion("q(x, y) :- (r r+)(x, y), (s)(x, z)");
  auto result = CheckUc2RpqContainment(q1, q2, alphabet_);
  ASSERT_TRUE(result.ok());
  // r alone (length 1) refutes.
  EXPECT_EQ(result->certainty, Certainty::kRefuted);

  auto other = CheckUc2RpqContainment(q2, q1, alphabet_);
  ASSERT_TRUE(other.ok());
  // True containment, but only bounded evidence is available.
  EXPECT_EQ(other->certainty, Certainty::kUnknownUpToBound);
}

TEST_F(CrpqContainmentTest, UnionDisjunctsEachChecked) {
  Uc2Rpq q1 = ParseUnion(
      "q(x, y) :- (r)(x, y)\n"
      "q(x, y) :- (s)(x, y)");
  Uc2Rpq q2 = ParseUnion("q(x, y) :- (r | s)(x, y)");
  auto result = CheckUc2RpqContainment(q1, q2, alphabet_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->certainty, Certainty::kProved);
  // And the union is contained back (r|s as one atom vs two disjuncts).
  auto back = CheckUc2RpqContainment(q2, q1, alphabet_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->certainty, Certainty::kProved);
}

}  // namespace
}  // namespace rq
