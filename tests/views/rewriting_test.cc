#include "views/rewriting.h"

#include <gtest/gtest.h>

#include "automata/containment.h"
#include "automata/words.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "pathquery/path_query.h"

namespace rq {
namespace {

class RewritingTest : public ::testing::Test {
 protected:
  RegexPtr Re(const std::string& text) {
    auto re = ParseRegex(text, &alphabet_);
    RQ_CHECK(re.ok());
    return *re;
  }
  Alphabet alphabet_;
};

TEST_F(RewritingTest, StarQueryOverMatchingView) {
  RegexPtr query = Re("(a b)*");
  std::vector<View> views{{"v1", Re("a b")}};
  auto rewriting = MaximalRewriting(*query, views, alphabet_);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status().ToString();
  EXPECT_FALSE(rewriting->empty);
  // The rewriting is v1*: accepts ε, v1, v1 v1, ...
  Symbol v1 = ForwardSymbolOf(0);
  EXPECT_TRUE(rewriting->automaton.Accepts({}));
  EXPECT_TRUE(rewriting->automaton.Accepts({v1}));
  EXPECT_TRUE(rewriting->automaton.Accepts({v1, v1, v1}));
  auto exact = RewritingIsExact(*rewriting, *query, views, alphabet_);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(*exact);
}

TEST_F(RewritingTest, ChoosesUsableViewsOnly) {
  RegexPtr query = Re("a b c");
  std::vector<View> views{{"ab", Re("a b")},
                          {"c", Re("c")},
                          {"a", Re("a")}};
  auto rewriting = MaximalRewriting(*query, views, alphabet_);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_FALSE(rewriting->empty);
  Symbol ab = ForwardSymbolOf(0);
  Symbol c = ForwardSymbolOf(1);
  Symbol a = ForwardSymbolOf(2);
  EXPECT_TRUE(rewriting->automaton.Accepts({ab, c}));
  EXPECT_FALSE(rewriting->automaton.Accepts({a, c}));  // no "b c" piece
  EXPECT_FALSE(rewriting->automaton.Accepts({ab}));
  auto exact = RewritingIsExact(*rewriting, *query, views, alphabet_);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(*exact);
}

TEST_F(RewritingTest, EmptyWhenViewsCannotCompose) {
  RegexPtr query = Re("a");
  std::vector<View> views{{"aa", Re("a a")}};
  auto rewriting = MaximalRewriting(*query, views, alphabet_);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_TRUE(rewriting->empty);
}

TEST_F(RewritingTest, PartialRewritingIsNotExact) {
  // Views cover only the (a b) branch of the union.
  RegexPtr query = Re("(a b)+ | c");
  std::vector<View> views{{"ab", Re("a b")}};
  auto rewriting = MaximalRewriting(*query, views, alphabet_);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_FALSE(rewriting->empty);
  auto exact = RewritingIsExact(*rewriting, *query, views, alphabet_);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(*exact);
}

TEST_F(RewritingTest, RejectsTwoWayInputs) {
  RegexPtr query = Re("a-");
  std::vector<View> views{{"v", Re("a")}};
  EXPECT_FALSE(MaximalRewriting(*query, views, alphabet_).ok());
  RegexPtr ok_query = Re("a");
  std::vector<View> bad_views{{"v", Re("a-")}};
  EXPECT_FALSE(MaximalRewriting(*ok_query, bad_views, alphabet_).ok());
}

TEST_F(RewritingTest, RejectsDuplicateViewNames) {
  std::vector<View> views{{"v", Re("a")}, {"v", Re("a a")}};
  EXPECT_FALSE(MaximalRewriting(*Re("a"), views, alphabet_).ok());
}

TEST_F(RewritingTest, SoundnessEveryRewritingWordExpandsIntoQuery) {
  // Property over random instances: enumerate short rewriting words, splice
  // view definitions, and check language containment in Q.
  Rng rng(808);
  alphabet_.InternLabel("a");
  alphabet_.InternLabel("b");
  int nonempty = 0;
  for (int round = 0; round < 25; ++round) {
    RegexPtr query = RandomRegex(alphabet_, 3, false, rng);
    std::vector<View> views{
        {"v0", RandomRegex(alphabet_, 2, false, rng)},
        {"v1", RandomRegex(alphabet_, 2, false, rng)},
    };
    auto rewriting = MaximalRewriting(*query, views, alphabet_);
    ASSERT_TRUE(rewriting.ok());
    if (rewriting->empty) continue;
    ++nonempty;
    uint32_t k = static_cast<uint32_t>(alphabet_.num_symbols());
    Nfa qnfa = query->ToNfa(k);
    for (const auto& w :
         EnumerateAcceptedWords(rewriting->automaton, 3, 10)) {
      // Build the concatenation regex of the views along w.
      std::vector<RegexPtr> parts;
      for (Symbol s : w) parts.push_back(views[SymbolLabel(s)].definition);
      Nfa expansion = Regex::Concat(parts)->ToNfa(k);
      EXPECT_TRUE(CheckLanguageContainment(expansion, qnfa).contained)
          << query->ToString(alphabet_);
    }
  }
  EXPECT_GT(nonempty, 0);
}

TEST_F(RewritingTest, AnswerUsingViewsIsSoundAndExactWhenExact) {
  Rng rng(909);
  alphabet_.InternLabel("a");
  alphabet_.InternLabel("b");
  for (int round = 0; round < 20; ++round) {
    RegexPtr query = RandomRegex(alphabet_, 3, false, rng);
    std::vector<View> views{
        {"v0", RandomRegex(alphabet_, 2, false, rng)},
        {"v1", RandomRegex(alphabet_, 2, false, rng)},
        {"v2", Re("a")},
        {"v3", Re("b")},
    };
    auto rewriting = MaximalRewriting(*query, views, alphabet_);
    ASSERT_TRUE(rewriting.ok());
    auto exact = RewritingIsExact(*rewriting, *query, views, alphabet_);
    ASSERT_TRUE(exact.ok());
    // With the single-letter views v2, v3 present, every one-way query is
    // exactly rewritable.
    EXPECT_TRUE(*exact) << query->ToString(alphabet_);
    GraphDb db = RandomGraph(8, 16, {"a", "b"}, rng.Next());
    Relation via_views = AnswerUsingViews(db, *rewriting, views).value();
    Relation direct(2);
    for (const auto& [x, y] : EvalPathQuery(db, *query)) {
      direct.Insert({x, y});
    }
    EXPECT_EQ(via_views.SortedTuples(), direct.SortedTuples())
        << query->ToString(alphabet_);
  }
}

TEST_F(RewritingTest, AnswerUsingViewsSoundOnPartialViews) {
  RegexPtr query = Re("(a b)+ | b");
  std::vector<View> views{{"ab", Re("a b")}};
  auto rewriting = MaximalRewriting(*query, views, alphabet_);
  ASSERT_TRUE(rewriting.ok());
  GraphDb db = RandomGraph(10, 25, {"a", "b"}, 4242);
  Relation via_views = AnswerUsingViews(db, *rewriting, views).value();
  Relation direct(2);
  for (const auto& [x, y] : EvalPathQuery(db, *query)) {
    direct.Insert({x, y});
  }
  for (size_t i = 0; i < via_views.size(); ++i) {
    EXPECT_TRUE(direct.Contains(via_views.row(i)));  // sound, maybe incomplete
  }
}

}  // namespace
}  // namespace rq
