#include "relational/cq.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace rq {
namespace {

ConjunctiveQuery Cq(const std::string& text) {
  auto q = ParseCq(text);
  RQ_CHECK(q.ok());
  return *q;
}

UnionOfConjunctiveQueries Ucq(const std::string& text) {
  auto q = ParseUcq(text);
  RQ_CHECK(q.ok());
  return *q;
}

// A small random database for evaluation cross-checks.
Database RandomDb(size_t num_preds, size_t domain, size_t tuples,
                  uint64_t seed) {
  Database db;
  Rng rng(seed);
  for (size_t p = 0; p < num_preds; ++p) {
    Relation* rel = db.GetOrCreate("p" + std::to_string(p), 2).value();
    for (size_t t = 0; t < tuples; ++t) {
      rel->Insert({rng.Below(domain), rng.Below(domain)});
    }
  }
  return db;
}

TEST(CqParseTest, ParsesHeadAndBody) {
  ConjunctiveQuery q = Cq("q(x, y) :- edge(x, z), edge(z, y)");
  EXPECT_EQ(q.head.size(), 2u);
  EXPECT_EQ(q.atoms.size(), 2u);
  EXPECT_EQ(q.num_vars, 3u);
  EXPECT_EQ(q.atoms[0].predicate, "edge");
}

TEST(CqParseTest, RejectsUnsafeQueries) {
  EXPECT_FALSE(ParseCq("q(x, w) :- edge(x, y)").ok());  // w not in body
  EXPECT_FALSE(ParseCq("q(x) : edge(x, y)").ok());      // missing :-
  EXPECT_FALSE(ParseCq("q(x) :- ").ok());               // empty body
  EXPECT_FALSE(ParseCq("q(x) :- e(x), e(x, x)").ok());  // arity conflict
}

TEST(CqEvalTest, PathOfLengthTwo) {
  Database db;
  Relation* e = db.GetOrCreate("edge", 2).value();
  e->Insert({1, 2});
  e->Insert({2, 3});
  e->Insert({3, 4});
  auto result = EvalCq(db, Cq("q(x, y) :- edge(x, z), edge(z, y)"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SortedTuples(),
            (std::vector<Tuple>{{1, 3}, {2, 4}}));
}

TEST(CqEvalTest, MissingRelationGivesEmptyAnswer) {
  Database db;
  auto result = EvalCq(db, Cq("q(x) :- nothing(x, x)"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(CqEvalTest, RepeatedHeadVariable) {
  Database db;
  Relation* e = db.GetOrCreate("edge", 2).value();
  e->Insert({1, 2});
  auto result = EvalCq(db, Cq("q(x, x) :- edge(x, y)"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->SortedTuples(), (std::vector<Tuple>{{1, 1}}));
}

// Chandra-Merlin classics.
TEST(CqContainmentTest, LongerPathContainedInShorter) {
  // A length-3 path query is contained in the length-2 path query? No —
  // containment goes the other way: more atoms = more constraints = fewer
  // answers ⊆ ... but over the SAME head pair, a path of length 3 does not
  // imply a path of length 2. Neither containment holds.
  ConjunctiveQuery p2 = Cq("q(x, y) :- e(x, m), e(m, y)");
  ConjunctiveQuery p3 = Cq("q(x, y) :- e(x, a), e(a, b), e(b, y)");
  EXPECT_FALSE(CqContained(p3, p2).value());
  EXPECT_FALSE(CqContained(p2, p3).value());
}

TEST(CqContainmentTest, TriangleContainedInPath) {
  // Triangle q(x,y) :- e(x,y), e(y,z), e(z,x) is contained in
  // q(x,y) :- e(x,y) (drop atoms = weaken).
  ConjunctiveQuery triangle = Cq("q(x, y) :- e(x, y), e(y, z), e(z, x)");
  ConjunctiveQuery single = Cq("q(x, y) :- e(x, y)");
  EXPECT_TRUE(CqContained(triangle, single).value());
  EXPECT_FALSE(CqContained(single, triangle).value());
}

TEST(CqContainmentTest, HomomorphismFoldsCycleOntoSelfLoop) {
  // q1: x with a self loop; q2: x on a 2-cycle. q1 ⊑ q2 via hom mapping
  // both cycle nodes onto the loop node.
  ConjunctiveQuery loop = Cq("q(x) :- e(x, x)");
  ConjunctiveQuery cyc = Cq("q(x) :- e(x, y), e(y, x)");
  EXPECT_TRUE(CqContained(loop, cyc).value());
  EXPECT_FALSE(CqContained(cyc, loop).value());
}

TEST(CqContainmentTest, EquivalentUpToVariableRenaming) {
  ConjunctiveQuery a = Cq("q(x, y) :- e(x, z), f(z, y)");
  ConjunctiveQuery b = Cq("q(u, v) :- e(u, w), f(w, v)");
  EXPECT_TRUE(CqContained(a, b).value());
  EXPECT_TRUE(CqContained(b, a).value());
}

TEST(CqContainmentTest, ContainmentImpliesAnswerInclusion) {
  Rng rng(314);
  int containments = 0;
  for (int round = 0; round < 120; ++round) {
    ConjunctiveQuery q1 = RandomBinaryCq(2 + rng.Below(3), 4, 2, rng);
    ConjunctiveQuery q2 = RandomBinaryCq(2 + rng.Below(3), 4, 2, rng);
    auto contained = CqContained(q1, q2);
    ASSERT_TRUE(contained.ok());
    if (!*contained) continue;
    ++containments;
    Database db = RandomDb(2, 5, 12, rng.Next());
    Relation a1 = EvalCq(db, q1).value();
    Relation a2 = EvalCq(db, q2).value();
    for (size_t i = 0; i < a1.size(); ++i) {
      EXPECT_TRUE(a2.Contains(a1.row(i))) << q1.ToString() << "  ⊑  "
                                          << q2.ToString();
    }
  }
  EXPECT_GT(containments, 0);
}

TEST(CqContainmentTest, NonContainmentHasSeparatingDatabase) {
  Rng rng(2718);
  for (int round = 0; round < 60; ++round) {
    ConjunctiveQuery q1 = RandomBinaryCq(2, 3, 2, rng);
    ConjunctiveQuery q2 = RandomBinaryCq(3, 4, 2, rng);
    auto contained = CqContained(q1, q2);
    ASSERT_TRUE(contained.ok());
    if (*contained) continue;
    // The canonical database of q1 must separate the queries.
    Database canonical = q1.CanonicalDatabase();
    Relation a1 = EvalCq(canonical, q1).value();
    Relation a2 = EvalCq(canonical, q2).value();
    EXPECT_TRUE(a1.Contains(q1.FrozenHead()));
    EXPECT_FALSE(a2.Contains(q1.FrozenHead()));
  }
}

TEST(UcqContainmentTest, DisjunctsContainedInUnion) {
  UnionOfConjunctiveQueries u =
      Ucq("q(x, y) :- e(x, y)\nq(x, y) :- f(x, y)");
  UnionOfConjunctiveQueries left = Ucq("q(x, y) :- e(x, y)");
  EXPECT_TRUE(UcqContained(left, u).value());
  EXPECT_FALSE(UcqContained(u, left).value());
}

TEST(UcqContainmentTest, UnionNeedsEveryDisjunctCovered) {
  UnionOfConjunctiveQueries u1 =
      Ucq("q(x, y) :- e(x, y), e(y, z)\nq(x, y) :- f(x, y), f(y, z)");
  UnionOfConjunctiveQueries u2 =
      Ucq("q(x, y) :- e(x, y)\nq(x, y) :- f(x, y)");
  EXPECT_TRUE(UcqContained(u1, u2).value());
  EXPECT_FALSE(UcqContained(u2, u1).value());
}

TEST(UcqContainmentTest, EvalUnionIsUnionOfEvals) {
  Database db;
  db.GetOrCreate("e", 2).value()->Insert({1, 2});
  db.GetOrCreate("f", 2).value()->Insert({3, 4});
  UnionOfConjunctiveQueries u =
      Ucq("q(x, y) :- e(x, y)\nq(x, y) :- f(x, y)");
  Relation answers = EvalUcq(db, u).value();
  EXPECT_EQ(answers.SortedTuples(),
            (std::vector<Tuple>{{1, 2}, {3, 4}}));
}

TEST(UcqContainmentTest, ArityMismatchIsAnError) {
  UnionOfConjunctiveQueries u1 = Ucq("q(x) :- e(x, y)");
  UnionOfConjunctiveQueries u2 = Ucq("q(x, y) :- e(x, y)");
  EXPECT_FALSE(UcqContained(u1, u2).ok());
}

}  // namespace
}  // namespace rq
