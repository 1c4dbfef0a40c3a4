#include "relational/relation.h"

#include <gtest/gtest.h>

#include "relational/matcher.h"

namespace rq {
namespace {

TEST(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({3, 3}));
}

TEST(RelationTest, ColumnIndexFindsRows) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({1, 20});
  r.Insert({2, 10});
  EXPECT_EQ(r.RowsWithValue(0, 1).size(), 2u);
  EXPECT_EQ(r.RowsWithValue(1, 10).size(), 2u);
  EXPECT_TRUE(r.RowsWithValue(0, 99).empty());
  // Index refreshes after inserts.
  r.Insert({1, 30});
  EXPECT_EQ(r.RowsWithValue(0, 1).size(), 3u);
}

TEST(RelationTest, ZeroArityRelationActsAsBoolean) {
  Relation r(0);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.Insert({}));
  EXPECT_FALSE(r.Insert({}));
  EXPECT_TRUE(r.Contains({}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, InsertAllCountsNewTuples) {
  Relation a(1);
  a.Insert({1});
  a.Insert({2});
  Relation b(1);
  b.Insert({2});
  b.Insert({3});
  EXPECT_EQ(a.InsertAll(b), 1u);
  EXPECT_EQ(a.size(), 3u);
}

// Flat store: membership survives many table growths.
TEST(RelationTest, DuplicatesRejectedAcrossTableGrowth) {
  Relation r(2);
  constexpr Value kRows = 50000;
  for (Value i = 0; i < kRows; ++i) {
    ASSERT_TRUE(r.Insert({i, i * 7 + 1}));
    ASSERT_FALSE(r.Insert({i, i * 7 + 1}));
  }
  for (Value i = 0; i < kRows; ++i) {
    EXPECT_FALSE(r.Insert({i, i * 7 + 1}));
  }
  EXPECT_EQ(r.size(), kRows);
  EXPECT_TRUE(r.Contains({kRows - 1, (kRows - 1) * 7 + 1}));
  EXPECT_FALSE(r.Contains({kRows, kRows * 7 + 1}));
  EXPECT_FALSE(r.Contains({1, 1}));
}

TEST(RelationTest, ArityZeroOneAndThree) {
  Relation nullary(0);
  EXPECT_FALSE(nullary.Contains({}));
  EXPECT_TRUE(nullary.Insert({}));
  EXPECT_FALSE(nullary.Insert({}));
  EXPECT_EQ(nullary.size(), 1u);
  EXPECT_TRUE(nullary.row(0).empty());
  EXPECT_EQ(nullary.SortedTuples(), std::vector<Tuple>{Tuple{}});

  Relation unary(1);
  for (Value v : {5, 3, 5, 9, 3}) unary.Insert({v});
  EXPECT_EQ(unary.size(), 3u);
  EXPECT_EQ(unary.row(2)[0], 9u);
  EXPECT_EQ(unary.RowsWithValue(0, 3).size(), 1u);
  EXPECT_EQ(unary.SortedTuples(), (std::vector<Tuple>{{3}, {5}, {9}}));

  Relation ternary(3);
  EXPECT_TRUE(ternary.Insert({1, 2, 3}));
  EXPECT_TRUE(ternary.Insert({1, 3, 2}));
  EXPECT_TRUE(ternary.Insert(Tuple{2, 2, 2}));
  EXPECT_FALSE(ternary.Insert({1, 2, 3}));
  EXPECT_TRUE(ternary.Contains({1, 3, 2}));
  EXPECT_FALSE(ternary.Contains({3, 2, 1}));
  EXPECT_EQ(ternary.RowsWithValue(0, 1).size(), 2u);
  EXPECT_EQ(ternary.RowsWithValue(2, 2).size(), 2u);
  EXPECT_EQ(Tuple(ternary.row(1).begin(), ternary.row(1).end()),
            (Tuple{1, 3, 2}));
}

TEST(RelationTest, RowKeepsInsertionOrderAcrossGrowth) {
  Relation r(2);
  std::vector<Tuple> inserted;
  Value x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    Tuple t{x >> 54, (x >> 20) & 0xff};
    if (r.Insert(t)) inserted.push_back(t);
  }
  ASSERT_EQ(r.size(), inserted.size());
  for (size_t i = 0; i < inserted.size(); ++i) {
    EXPECT_EQ(Tuple(r.row(i).begin(), r.row(i).end()), inserted[i]);
  }
}

TEST(RelationTest, EqualityIgnoresInsertionOrder) {
  Relation a(2);
  Relation b(2);
  for (Value i = 0; i < 100; ++i) a.Insert({i, i + 1});
  for (Value i = 100; i-- > 0;) b.Insert({i, i + 1});
  EXPECT_TRUE(a == b);
  b.Insert({0, 0});
  EXPECT_FALSE(a == b);
  a.Insert({0, 0});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == Relation(3));
}

// The incremental-closure pattern: probes built on first use must stay
// exact while inserts keep landing between them.
TEST(RelationTest, RowsWithValueExactWhenInsertsInterleaveProbes) {
  Relation r(2);
  Value x = 99;
  for (int step = 0; step < 4000; ++step) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    r.Insert({(x >> 40) % 64, (x >> 20) % 64});
    if (step % 37 != 0) continue;
    for (size_t column = 0; column < 2; ++column) {
      Value probe = (x >> 8) % 64;
      std::vector<uint32_t> expected;
      for (uint32_t row = 0; row < r.size(); ++row) {
        if (r.row(row)[column] == probe) expected.push_back(row);
      }
      std::vector<uint32_t> got;
      for (uint32_t row : r.RowsWithValue(column, probe)) got.push_back(row);
      EXPECT_EQ(got, expected) << "step " << step << " column " << column;
    }
  }
}

TEST(RelationTest, BuiltIndexesAnswerLikeLazyOnes) {
  Relation lazy(2);
  for (Value i = 0; i < 300; ++i) lazy.Insert({i % 17, i % 11});
  Relation built = lazy;
  built.BuildIndexes();
  built.Insert({40, 40});
  lazy.Insert({40, 40});
  for (Value v = 0; v < 41; ++v) {
    for (size_t column = 0; column < 2; ++column) {
      std::vector<uint32_t> a;
      std::vector<uint32_t> b;
      for (uint32_t row : lazy.RowsWithValue(column, v)) a.push_back(row);
      for (uint32_t row : built.RowsWithValue(column, v)) b.push_back(row);
      EXPECT_EQ(a, b);
    }
  }
}

TEST(SortedRowsTest, SortRowsFromARowRangeAndMerge) {
  Relation r(2);
  for (Value v : {5, 1, 4, 2}) r.Insert({v, 0});
  SortedRows head = SortRows(r, 0);
  ASSERT_EQ(head.size(), 4u);
  EXPECT_EQ(head.row(0)[0], 1u);
  EXPECT_EQ(head.row(3)[0], 5u);
  SortedRows prefix = SortRows(r, 4);  // nothing past row 4 yet
  EXPECT_EQ(prefix.size(), 0u);
  r.Insert({3, 0});
  r.Insert({0, 0});
  SortedRows grown = SortRows(r, 4);
  ASSERT_EQ(grown.size(), 2u);
  SortedRows merged = MergeRows(head, grown);
  ASSERT_EQ(merged.size(), 6u);
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged.row(i)[0], static_cast<Value>(i));
  }
}

TEST(DatabaseTest, GetOrCreateChecksArity) {
  Database db;
  ASSERT_TRUE(db.GetOrCreate("r", 2).ok());
  EXPECT_TRUE(db.GetOrCreate("r", 2).ok());
  EXPECT_FALSE(db.GetOrCreate("r", 3).ok());
  EXPECT_EQ(db.Find("missing"), nullptr);
}

TEST(DatabaseTest, ToStringIsSortedAndStable) {
  Database db;
  db.GetOrCreate("b", 1).value()->Insert({2});
  db.GetOrCreate("a", 2).value()->Insert({1, 2});
  db.GetOrCreate("b", 1).value()->Insert({1});
  EXPECT_EQ(db.ToString(), "a(1,2)\nb(1)\nb(2)\n");
}

TEST(MatcherTest, SingleAtomEnumeratesRows) {
  Relation r(2);
  r.Insert({1, 2});
  r.Insert({3, 4});
  std::vector<std::vector<Value>> bindings;
  MatchConjunction({{&r, {0, 1}}}, 2, [&](const std::vector<Value>& b) {
    bindings.push_back(b);
    return true;
  });
  EXPECT_EQ(bindings.size(), 2u);
}

TEST(MatcherTest, RepeatedVariableFiltersDiagonal) {
  Relation r(2);
  r.Insert({1, 1});
  r.Insert({1, 2});
  r.Insert({2, 2});
  size_t count = MatchConjunction(
      {{&r, {0, 0}}}, 1, [](const std::vector<Value>&) { return true; });
  EXPECT_EQ(count, 2u);  // (1,1) and (2,2)
}

TEST(MatcherTest, JoinSharesVariables) {
  Relation e(2);
  e.Insert({1, 2});
  e.Insert({2, 3});
  e.Insert({3, 4});
  // e(x, y), e(y, z): paths of length 2.
  std::vector<std::vector<Value>> bindings;
  MatchConjunction({{&e, {0, 1}}, {&e, {1, 2}}}, 3,
                   [&](const std::vector<Value>& b) {
                     bindings.push_back(b);
                     return true;
                   });
  EXPECT_EQ(bindings.size(), 2u);
}

TEST(MatcherTest, EarlyTerminationStopsEnumeration) {
  Relation r(1);
  for (Value v = 0; v < 100; ++v) r.Insert({v});
  size_t seen = 0;
  MatchConjunction({{&r, {0}}}, 1, [&](const std::vector<Value>&) {
    ++seen;
    return seen < 5;
  });
  EXPECT_EQ(seen, 5u);
}

TEST(MatcherTest, TriangleJoin) {
  Relation e(2);
  e.Insert({1, 2});
  e.Insert({2, 3});
  e.Insert({3, 1});
  e.Insert({1, 3});  // extra chord
  // Triangle: e(x,y), e(y,z), e(z,x).
  size_t triangles = MatchConjunction(
      {{&e, {0, 1}}, {&e, {1, 2}}, {&e, {2, 0}}}, 3,
      [](const std::vector<Value>&) { return true; });
  EXPECT_EQ(triangles, 3u);  // rotations of (1,2,3)
}

TEST(MatcherTest, EmptyRelationYieldsNoMatches) {
  Relation e(2);
  EXPECT_FALSE(ConjunctionSatisfiable({{&e, {0, 1}}}, 2));
}

TEST(MatcherTest, CrossProductWithoutSharedVars) {
  Relation a(1), b(1);
  a.Insert({1});
  a.Insert({2});
  b.Insert({7});
  b.Insert({8});
  b.Insert({9});
  size_t count =
      MatchConjunction({{&a, {0}}, {&b, {1}}}, 2,
                       [](const std::vector<Value>&) { return true; });
  EXPECT_EQ(count, 6u);
}

}  // namespace
}  // namespace rq
