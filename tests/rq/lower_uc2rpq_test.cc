#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "rq/containment.h"
#include "rq/eval.h"
#include "rq/lower.h"
#include "rq/parser.h"

namespace rq {
namespace {

RqQuery Parse(const std::string& text) {
  auto q = ParseRq(text);
  RQ_CHECK(q.ok());
  return *q;
}

TEST(LowerUc2RpqTest, TrianglePatternLowers) {
  Alphabet alphabet;
  // The paper's Example 1: not a single 2RPQ, but a C2RPQ.
  RqQuery q = Parse("q(x, y) := exists[z](r(x, y) & r(x, z) & r(y, z))");
  auto lowered = TryLowerToUc2Rpq(q, &alphabet);
  ASSERT_TRUE(lowered.has_value());
  EXPECT_EQ(lowered->disjuncts.size(), 1u);
  EXPECT_EQ(lowered->disjuncts[0].atoms.size(), 3u);
  EXPECT_FALSE(TryLowerUc2Rpq(*lowered).has_value());
}

TEST(LowerUc2RpqTest, UnionOfPatternsLowers) {
  Alphabet alphabet;
  RqQuery q = Parse(
      "q(x, y) := exists[z](r(x, y) & r(y, z) & r(z, x)) | "
      "(s(x, y) & tc[x,y](r(x, y)))");
  auto lowered = TryLowerToUc2Rpq(q, &alphabet);
  ASSERT_TRUE(lowered.has_value());
  EXPECT_EQ(lowered->disjuncts.size(), 2u);
}

TEST(LowerUc2RpqTest, ChainsInsideConjunctsStayIntactOrSplit) {
  Alphabet alphabet;
  RqQuery q = Parse(
      "q(x, y) := exists[m](r(x, m) & s(m, y)) & t(x, y)");
  auto lowered = TryLowerToUc2Rpq(q, &alphabet);
  ASSERT_TRUE(lowered.has_value());
  // The flattened form has three binary atoms: r(x,m), s(m,y), t(x,y).
  EXPECT_EQ(lowered->disjuncts[0].atoms.size(), 3u);
}

TEST(LowerUc2RpqTest, SelectionAndHigherArityDoNotLower) {
  Alphabet alphabet;
  EXPECT_FALSE(
      TryLowerToUc2Rpq(Parse("q(x, y) := eq[x,y](r(x, y))"), &alphabet)
          .has_value());
  EXPECT_FALSE(
      TryLowerToUc2Rpq(Parse("q(x, y) := t(x, y, z)"), &alphabet)
          .has_value());
  // Unary conjunct (self-loop pattern with one free var) does not fit.
  EXPECT_FALSE(
      TryLowerToUc2Rpq(Parse("q(x) := r(x, x)"), &alphabet).has_value());
}

TEST(LowerUc2RpqTest, LoweringPreservesSemantics) {
  const char* queries[] = {
      "q(x, y) := exists[z](r(x, y) & r(x, z) & r(y, z))",
      "q(x, y) := r(x, y) & s(x, y)",
      "q(x, y) := exists[z](tc[x,z](r(x, z)) & s(z, y)) | r(x, y)",
      "q(x) := exists[y](r(x, y) & s(y, x))",
  };
  Rng rng(161616);
  for (const char* text : queries) {
    RqQuery q = Parse(text);
    for (int round = 0; round < 5; ++round) {
      GraphDb graph = RandomGraph(8, 18, {"r", "s"}, rng.Next());
      auto lowered = TryLowerToUc2Rpq(q, &graph.alphabet());
      ASSERT_TRUE(lowered.has_value()) << text;
      Relation via_rq = EvalRqQuery(GraphToDatabase(graph), q).value();
      Relation via_crpq = EvalUc2Rpq(graph, *lowered).value();
      EXPECT_EQ(via_rq.SortedTuples(), via_crpq.SortedTuples()) << text;
    }
  }
}

TEST(LowerUc2RpqTest, DispatcherUsesUc2RpqRoute) {
  // Triangle pattern ⊑ single-edge pattern: conjunctive, finite languages —
  // the UC2RPQ dispatch proves it exactly (previously the expansion route).
  auto result = CheckRqContainment(
      Parse("q(x, y) := exists[z](r(x, y) & r(x, z) & r(y, z))"),
      Parse("q(x, y) := r(x, y)"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->certainty, Certainty::kProved);
  EXPECT_EQ(result->method, "uc2rpq:expansion-exact");

  // And a refutation with a checkable certificate through the same route.
  auto neg = CheckRqContainment(
      Parse("q(x, y) := r(x, y) & s(x, y)"),
      Parse("q(x, y) := exists[z](r(x, y) & s(x, z) & s(z, y))"));
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->certainty, Certainty::kRefuted);
  ASSERT_TRUE(neg->counterexample.has_value());
  Relation a1 = EvalRqQuery(*neg->counterexample,
                            Parse("q(x, y) := r(x, y) & s(x, y)"))
                    .value();
  EXPECT_TRUE(a1.Contains(neg->witness_tuple));
}

}  // namespace
}  // namespace rq
