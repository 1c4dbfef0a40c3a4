#include "rq/containment.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "rq/eval.h"
#include "rq/expand.h"
#include "rq/parser.h"

namespace rq {
namespace {

RqQuery Parse(const std::string& text) {
  auto q = ParseRq(text);
  RQ_CHECK(q.ok());
  return *q;
}

RqContainmentResult Check(const std::string& q1, const std::string& q2) {
  auto result = CheckRqContainment(Parse(q1), Parse(q2));
  RQ_CHECK(result.ok());
  return *result;
}

TEST(RqExpandTest, ClosureFreeExpansionIsComplete) {
  auto expanded =
      ExpandRq(Parse("q(x, z) := exists[y](r(x,y) & (s(y,z) | t(y,z)))"));
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(expanded->complete);
  EXPECT_EQ(expanded->expansions.size(), 2u);
}

TEST(RqExpandTest, ClosureUnrollsToChains) {
  RqExpandLimits limits;
  limits.max_tc_unroll = 4;
  auto expanded = ExpandRq(Parse("q(x, y) := tc[x,y](r(x, y))"), limits);
  ASSERT_TRUE(expanded.ok());
  EXPECT_FALSE(expanded->complete);
  EXPECT_EQ(expanded->expansions.size(), 4u);
  EXPECT_EQ(expanded->expansions[0].atoms.size(), 1u);
  EXPECT_EQ(expanded->expansions[3].atoms.size(), 4u);
}

TEST(RqExpandTest, ExpansionsAnswerTheirCanonicalDatabases) {
  const char* queries[] = {
      "q(x, y) := tc[x,y](r(x, y) | s(x, y))",
      "q(x, z) := exists[y](tc[x,y](r(x, y)) & s(y, z))",
      "q(x, y) := eq[x,y](r(x, y)) | r(x, y)",
  };
  for (const char* text : queries) {
    RqQuery q = Parse(text);
    auto expanded = ExpandRq(q);
    ASSERT_TRUE(expanded.ok()) << text;
    ASSERT_FALSE(expanded->expansions.empty()) << text;
    for (const ConjunctiveQuery& cq : expanded->expansions) {
      Database canonical = cq.CanonicalDatabase();
      Relation answers = EvalRqQuery(canonical, q).value();
      EXPECT_TRUE(answers.Contains(cq.FrozenHead()))
          << text << " expansion " << cq.ToString();
    }
  }
}

TEST(RqContainmentTest, TwoRpqDispatchOnPathShapedQueries) {
  // p ⊑ p p⁻ p from the paper, expressed in the RQ algebra.
  RqContainmentResult result = Check(
      "q(x, y) := p(x, y)",
      "q(x, y) := exists[a, b](p(x, a) & p(b, a) & p(b, y))");
  EXPECT_EQ(result.method, "uc2rpq:2rpq-fold");
  EXPECT_EQ(result.certainty, Certainty::kProved);
}

TEST(RqContainmentTest, ClosureFreeExactVerdicts) {
  // Triangle ⊑ single edge (drop atoms).
  RqContainmentResult pos = Check(
      "q(x, y) := exists[z](r(x,y) & r(y,z) & r(z,x))",
      "q(x, y) := r(x, y)");
  EXPECT_EQ(pos.certainty, Certainty::kProved);

  RqContainmentResult neg = Check(
      "q(x, y) := r(x, y)",
      "q(x, y) := exists[z](r(x,y) & r(y,z) & r(z,x))");
  EXPECT_EQ(neg.certainty, Certainty::kRefuted);
  ASSERT_TRUE(neg.counterexample.has_value());
  // The witness database separates the queries.
  Relation a1 =
      EvalRqQuery(*neg.counterexample, Parse("q(x, y) := r(x, y)")).value();
  Relation a2 = EvalRqQuery(
                    *neg.counterexample,
                    Parse("q(x, y) := exists[z](r(x,y) & r(y,z) & r(z,x))"))
                    .value();
  EXPECT_TRUE(a1.Contains(neg.witness_tuple));
  EXPECT_FALSE(a2.Contains(neg.witness_tuple));
}

TEST(RqContainmentTest, ClosureRefutedByShortExpansion) {
  // tc(r) is not contained in r: the 2-chain refutes it. Exercise the
  // expansion path by disabling the 2RPQ dispatch.
  RqContainmentOptions options;
  options.try_two_rpq_dispatch = false;
  auto result = CheckRqContainment(Parse("q(x, y) := tc[x,y](r(x, y))"),
                                   Parse("q(x, y) := r(x, y)"), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->certainty, Certainty::kRefuted);
  EXPECT_EQ(result->method, "expansion-bounded");
}

TEST(RqContainmentTest, ClosureProvedViaTwoRpqDispatch) {
  // tc(r) ⊑ r | r·r⁺ — equivalent unrollings; both sides are unions of
  // chains, so the UC2RPQ dispatch proves it by the 2RPQ fold.
  RqContainmentResult result = Check(
      "q(x, y) := tc[x,y](r(x, y))",
      "q(x, y) := r(x, y) | exists[m](r(x, m) & tc[m,y](r(m, y)))");
  EXPECT_EQ(result.method, "uc2rpq:2rpq-fold");
  EXPECT_EQ(result.certainty, Certainty::kProved);
}

TEST(RqContainmentTest, ShadowedProjectionsAreTwoVariables) {
  // Two projections of t bind two variables, so q1 is not the chain a b:
  // a(0,1), b(2,3) answers (0,3) for q1 only.
  const std::string q1 = "q(x, y) := exists[t](a(x, t)) & exists[t](b(t, y))";
  const std::string q2 = "q(x, y) := exists[t](a(x, t) & b(t, y))";
  RqContainmentResult result = Check(q1, q2);
  ASSERT_EQ(result.certainty, Certainty::kRefuted);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_TRUE(EvalRqQuery(*result.counterexample, Parse(q1))
                  .value()
                  .Contains(result.witness_tuple));
  EXPECT_FALSE(EvalRqQuery(*result.counterexample, Parse(q2))
                   .value()
                   .Contains(result.witness_tuple));
  EXPECT_EQ(Check(q2, q1).certainty, Certainty::kProved);
}

TEST(RqContainmentTest, TriangleClosureProvedByTcMonotonicity) {
  // tc of the triangle query contained in tc of single edge: true but not
  // path-shaped; the structural TC-monotonicity rule proves it (the
  // triangle body ⊑ the single atom is an exact closure-free subgoal).
  RqContainmentResult result = Check(
      "q(x, y) := tc[x,y](exists[z](r(x,y) & r(y,z) & r(z,x)))",
      "q(x, y) := tc[x,y](r(x, y))");
  EXPECT_EQ(result.certainty, Certainty::kProved);
  EXPECT_EQ(result.method, "structural");
}

TEST(RqContainmentTest, ClosureUnknownBeyondTheProofRules) {
  // TC(r∘r) ⊑ TC(r) is true (even-length chains are chains) but needs
  // reasoning about iteration counts that neither expansions nor the
  // structural rules provide — and the left side is not 2RPQ-lowerable
  // here because of the guard conjunct. The checker must stay honest.
  RqContainmentResult result = Check(
      "q(x, y) := tc[x,y](exists[m](r(x, m) & r(m, y)) & g(x, y))",
      "q(x, y) := tc[x,y](r(x, y))");
  EXPECT_EQ(result.certainty, Certainty::kUnknownUpToBound);
  EXPECT_GT(result.expansions_checked, 0u);
}

TEST(RqContainmentTest, TriangleClosureNotContainedInEdge) {
  RqContainmentResult result = Check(
      "q(x, y) := tc[x,y](exists[z](r(x,y) & r(y,z) & r(z,x)))",
      "q(x, y) := r(x, y)");
  // The 2-step closure chain of triangles is not a single edge.
  EXPECT_EQ(result.certainty, Certainty::kRefuted);
}

TEST(RqContainmentTest, SelectionContainments) {
  RqContainmentResult pos =
      Check("q(x, y) := eq[x,y](r(x, y))", "q(x, y) := r(x, y)");
  EXPECT_EQ(pos.certainty, Certainty::kProved);
  RqContainmentResult neg =
      Check("q(x, y) := r(x, y)", "q(x, y) := eq[x,y](r(x, y))");
  EXPECT_EQ(neg.certainty, Certainty::kRefuted);
}

TEST(RqContainmentTest, ArityMismatchIsError) {
  EXPECT_FALSE(CheckRqContainment(Parse("q(x) := r(x, x)"),
                                  Parse("q(x, y) := r(x, y)"))
                   .ok());
}

TEST(RqContainmentTest, RefutationsAreSoundOnRandomPairs) {
  // Whatever the checker refutes must genuinely differ on the attached
  // counterexample.
  Rng rng(424242);
  const char* templates[] = {
      "q(x, y) := r(x, y)",
      "q(x, y) := s(x, y)",
      "q(x, y) := r(x, y) | s(x, y)",
      "q(x, y) := exists[z](r(x, z) & s(z, y))",
      "q(x, y) := tc[x,y](r(x, y))",
      "q(x, y) := tc[x,y](r(x, y) | s(x, y))",
      "q(x, y) := exists[z](r(x, z) & r(z, y))",
  };
  int refuted = 0;
  for (const char* t1 : templates) {
    for (const char* t2 : templates) {
      auto result = CheckRqContainment(Parse(t1), Parse(t2));
      ASSERT_TRUE(result.ok());
      if (result->certainty != Certainty::kRefuted) continue;
      ++refuted;
      ASSERT_TRUE(result->counterexample.has_value());
      Relation a1 = EvalRqQuery(*result->counterexample, Parse(t1)).value();
      Relation a2 = EvalRqQuery(*result->counterexample, Parse(t2)).value();
      EXPECT_TRUE(a1.Contains(result->witness_tuple)) << t1 << " vs " << t2;
      EXPECT_FALSE(a2.Contains(result->witness_tuple)) << t1 << " vs " << t2;
    }
  }
  EXPECT_GT(refuted, 10);
}

TEST(RqContainmentTest, ProvedVerdictsImplyAnswerInclusionOnRandomGraphs) {
  Rng rng(7777);
  const char* templates[] = {
      "q(x, y) := r(x, y)",
      "q(x, y) := r(x, y) | s(x, y)",
      "q(x, y) := exists[z](r(x, z) & s(z, y))",
      "q(x, y) := tc[x,y](r(x, y))",
      "q(x, y) := tc[x,y](r(x, y) | s(x, y))",
  };
  for (const char* t1 : templates) {
    for (const char* t2 : templates) {
      auto result = CheckRqContainment(Parse(t1), Parse(t2));
      ASSERT_TRUE(result.ok());
      if (result->certainty != Certainty::kProved) continue;
      for (int round = 0; round < 4; ++round) {
        GraphDb graph = RandomGraph(7, 14, {"r", "s"}, rng.Next());
        Database db = GraphToDatabase(graph);
        Relation a1 = EvalRqQuery(db, Parse(t1)).value();
        Relation a2 = EvalRqQuery(db, Parse(t2)).value();
        for (size_t i = 0; i < a1.size(); ++i) {
          EXPECT_TRUE(a2.Contains(a1.row(i))) << t1 << " ⊑ " << t2;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rq
