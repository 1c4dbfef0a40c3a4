#include "rq/lower.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/rng.h"
#include "graph/generators.h"
#include "pathquery/path_query.h"
#include "rq/eval.h"
#include "rq/parser.h"

namespace rq {
namespace {

RqQuery Parse(const std::string& text) {
  auto q = ParseRq(text);
  RQ_CHECK(q.ok());
  return *q;
}

// The 2RPQ a query denotes: its UC2RPQ lowering, collapsed chain by chain,
// as the front door's eval and the containment dispatcher take it.
std::optional<RegexPtr> LowerToTwoRpq(const RqQuery& query,
                                      Alphabet* alphabet) {
  std::optional<Uc2Rpq> crpq = TryLowerToUc2Rpq(query, alphabet);
  if (!crpq.has_value()) return std::nullopt;
  return TryLowerUc2Rpq(*crpq);
}

TEST(LowerTest, AtomLowersToSymbol) {
  Alphabet alphabet;
  auto re = LowerToTwoRpq(Parse("q(x, y) := r(x, y)"), &alphabet);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ((*re)->ToString(alphabet), "r");
}

TEST(LowerTest, SwappedAtomLowersToInverse) {
  Alphabet alphabet;
  auto re = LowerToTwoRpq(Parse("q(x, y) := r(y, x)"), &alphabet);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ((*re)->ToString(alphabet), "r-");
}

TEST(LowerTest, CompositionLowersToConcat) {
  Alphabet alphabet;
  auto re = LowerToTwoRpq(
      Parse("q(x, z) := exists[y](r(x, y) & s(y, z))"), &alphabet);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ((*re)->ToString(alphabet), "r s");
}

TEST(LowerTest, ChainWithBackwardHop) {
  Alphabet alphabet;
  auto re = LowerToTwoRpq(
      Parse("q(x, z) := exists[y](r(x, y) & s(z, y))"), &alphabet);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ((*re)->ToString(alphabet), "r s-");
}

TEST(LowerTest, ClosureLowersToPlus) {
  Alphabet alphabet;
  auto re = LowerToTwoRpq(Parse("q(x, y) := tc[x,y](r(x, y))"), &alphabet);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ((*re)->ToString(alphabet), "r+");
}

TEST(LowerTest, UnionLowers) {
  Alphabet alphabet;
  auto re = LowerToTwoRpq(
      Parse("q(x, y) := r(x, y) | s(y, x)"), &alphabet);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ((*re)->ToString(alphabet), "r | s-");
}

TEST(LowerTest, LongChainLowers) {
  Alphabet alphabet;
  auto re = LowerToTwoRpq(
      Parse("q(a, d) := exists[b, c](r(a, b) & tc[b,c](s(b, c)) & r(d, c))"),
      &alphabet);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ((*re)->ToString(alphabet), "r s+ r-");
}

TEST(LowerTest, ParallelPathsDoNotLower) {
  Alphabet alphabet;
  // Two paths between the same endpoints: genuinely conjunctive, not a
  // 2RPQ.
  EXPECT_FALSE(
      LowerToTwoRpq(Parse("q(x, y) := r(x, y) & s(x, y)"), &alphabet)
          .has_value());
}

TEST(LowerTest, BranchingDoesNotLower) {
  Alphabet alphabet;
  // The paper's Example 1 (triangle-ish pattern): z is reached from both
  // endpoints, so the pattern is not a chain.
  EXPECT_FALSE(LowerToTwoRpq(
                   Parse("q(x, y) := exists[z](r(x, y) & r(x, z) & r(y, z))"),
                   &alphabet)
                   .has_value());
}

TEST(LowerTest, SelectionDoesNotLower) {
  Alphabet alphabet;
  EXPECT_FALSE(LowerToTwoRpq(Parse("q(x, y) := eq[x,y](r(x, y))"), &alphabet)
                   .has_value());
}

TEST(LowerTest, TernaryAtomDoesNotLower) {
  Alphabet alphabet;
  EXPECT_FALSE(
      LowerToTwoRpq(Parse("q(x, y) := t(x, y, x)"), &alphabet).has_value());
}

TEST(LowerTest, ShadowedProjectionsDoNotLower) {
  // Two projections of one name are two variables: `r s` would join them.
  Alphabet alphabet;
  for (const char* text :
       {"q(x, z) := exists[y](r(x, y)) & exists[y](s(y, z))",
        "q(x, z) := exists[y](exists[y](r(x, y)) & s(y, z))",
        "q(x, z) := tc[x,z](exists[y](r(x, y)) & exists[y](s(y, z)))"}) {
    EXPECT_FALSE(LowerToTwoRpq(Parse(text), &alphabet).has_value()) << text;
  }
}

// Soundness: whenever lowering succeeds, the regex evaluated as a 2RPQ over
// a graph agrees with the RQ evaluated over the relational view.
TEST(LowerTest, LoweringPreservesSemantics) {
  const char* queries[] = {
      "q(x, y) := r(x, y)",
      "q(x, y) := r(y, x)",
      "q(x, z) := exists[y](r(x, y) & s(y, z))",
      "q(x, z) := exists[y](r(x, y) & s(z, y))",
      "q(x, y) := tc[x,y](r(x, y) | s(y, x))",
      "q(a, d) := exists[b, c](r(a, b) & tc[b,c](s(b, c)) & r(d, c))",
      "q(x, y) := tc[y,x](r(y, x))",
  };
  Rng rng(90210);
  for (const char* text : queries) {
    RqQuery q = Parse(text);
    for (int round = 0; round < 5; ++round) {
      GraphDb graph = RandomGraph(8, 16, {"r", "s"}, rng.Next());
      auto regex = LowerToTwoRpq(q, &graph.alphabet());
      ASSERT_TRUE(regex.has_value()) << text;
      Database db = GraphToDatabase(graph);
      Relation via_rq = EvalRqQuery(db, q).value();
      auto pairs = EvalPathQuery(graph, **regex);
      Relation via_2rpq(2);
      for (const auto& [x, y] : pairs) via_2rpq.Insert({x, y});
      EXPECT_EQ(via_rq.SortedTuples(), via_2rpq.SortedTuples()) << text;
    }
  }
}

}  // namespace
}  // namespace rq
