// Parameterized property sweeps: each suite re-runs an invariant across a
// range of RNG seeds, so every seed is an independently reported test case.
#include <gtest/gtest.h>

#include "automata/containment.h"
#include "automata/ops.h"
#include "automata/words.h"
#include "common/rng.h"
#include "datalog/eval.h"
#include "graph/generators.h"
#include "pathquery/containment.h"
#include "pathquery/path_query.h"
#include "regex/regex.h"
#include "relational/cq.h"
#include "rq/eval.h"
#include "rq/to_datalog.h"
#include "twoway/fold.h"
#include "twoway/random.h"
#include "twoway/tables.h"

namespace rq {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

// --- Regular languages -----------------------------------------------------

using RegexLanguageProperty = SeededTest;

// DeMorgan-ish sanity: L(r1) ⊆ L(r1|r2) and L(r1 r2) words concatenate.
TEST_P(RegexLanguageProperty, UnionAndConcatClosure) {
  Rng rng(GetParam());
  Alphabet alphabet;
  alphabet.InternLabel("a");
  alphabet.InternLabel("b");
  RegexPtr r1 = RandomRegex(alphabet, 3, false, rng);
  RegexPtr r2 = RandomRegex(alphabet, 3, false, rng);
  Nfa n1 = r1->ToNfa(4);
  Nfa n2 = r2->ToNfa(4);
  Nfa u = Regex::Union({r1, r2})->ToNfa(4);
  Nfa c = Regex::Concat({r1, r2})->ToNfa(4);
  EXPECT_TRUE(CheckLanguageContainment(n1, u).contained);
  EXPECT_TRUE(CheckLanguageContainment(n2, u).contained);
  for (const auto& w1 : EnumerateAcceptedWords(n1, 3, 8)) {
    for (const auto& w2 : EnumerateAcceptedWords(n2, 3, 8)) {
      std::vector<Symbol> cat = w1;
      cat.insert(cat.end(), w2.begin(), w2.end());
      EXPECT_TRUE(c.Accepts(cat)) << r1->ToString(alphabet) << " . "
                                  << r2->ToString(alphabet);
    }
  }
}

// Determinize/minimize/complement round trip: w ∈ L iff w ∉ complement(L).
TEST_P(RegexLanguageProperty, ComplementPartitionsWords) {
  Rng rng(GetParam() ^ 0xabcdef);
  Alphabet alphabet;
  alphabet.InternLabel("a");
  alphabet.InternLabel("b");
  RegexPtr re = RandomRegex(alphabet, 3, false, rng);
  Nfa nfa = re->ToNfa(4);
  Dfa comp = ComplementToDfa(nfa);
  Dfa minimized = Minimize(Determinize(nfa));
  for (int i = 0; i < 30; ++i) {
    std::vector<Symbol> w;
    size_t len = rng.Below(6);
    for (size_t j = 0; j < len; ++j) {
      w.push_back(ForwardSymbolOf(static_cast<uint32_t>(rng.Below(2))));
    }
    bool in = nfa.Accepts(w);
    EXPECT_NE(in, comp.Accepts(w)) << re->ToString(alphabet);
    EXPECT_EQ(in, minimized.Accepts(w)) << re->ToString(alphabet);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexLanguageProperty,
                         ::testing::Range<uint64_t>(1, 21));

// --- Two-way automata -------------------------------------------------------

using TwoWayProperty = SeededTest;

// Shepherdson tables decide exactly the same language as configuration BFS.
TEST_P(TwoWayProperty, TablesMatchConfigurationSearch) {
  TwoNfa m = RandomTwoNfa(5, 2, 4, GetParam());
  TwoNfaSimulator sim(m);
  Rng rng(GetParam() * 31);
  for (int i = 0; i < 40; ++i) {
    std::vector<Symbol> w;
    size_t len = rng.Below(7);
    for (size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<Symbol>(rng.Below(2)));
    }
    EXPECT_EQ(m.Accepts(w), sim.AcceptsWord(w));
  }
}

// fold(L) contains L itself and is closed under inserting x x⁻ round trips
// at the end of the traversal... at minimum: every word of L folds onto
// itself, and FoldTwoNfa agrees with the direct fold search.
TEST_P(TwoWayProperty, FoldAgreement) {
  Rng rng(GetParam() * 101);
  Alphabet alphabet;
  alphabet.InternLabel("p");
  alphabet.InternLabel("q");
  RegexPtr re = RandomRegex(alphabet, 2, true, rng);
  Nfa nfa = re->ToNfa(4).WithoutEpsilons().Trimmed();
  TwoNfa fold2 = FoldTwoNfa(nfa);
  for (int i = 0; i < 20; ++i) {
    std::vector<Symbol> u;
    size_t len = rng.Below(4);
    for (size_t j = 0; j < len; ++j) {
      u.push_back(static_cast<Symbol>(rng.Below(4)));
    }
    EXPECT_EQ(FoldsOntoWord(nfa, u), fold2.Accepts(u))
        << re->ToString(alphabet);
  }
  for (const auto& v : EnumerateAcceptedWords(nfa, 3, 10)) {
    EXPECT_TRUE(Folds(v, v));
    EXPECT_TRUE(fold2.Accepts(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoWayProperty,
                         ::testing::Range<uint64_t>(1, 26));

// --- Path queries ------------------------------------------------------------

using PathQueryProperty = SeededTest;

// Graph evaluation is monotone under edge addition.
TEST_P(PathQueryProperty, EvaluationIsMonotone) {
  Rng rng(GetParam() * 7);
  GraphDb small = RandomGraph(8, 10, {"a", "b"}, GetParam());
  GraphDb big = RandomGraph(8, 10, {"a", "b"}, GetParam());
  // Extend `big` with extra random edges.
  for (int i = 0; i < 6; ++i) {
    big.AddEdge(static_cast<NodeId>(rng.Below(8)),
                static_cast<uint32_t>(rng.Below(2)),
                static_cast<NodeId>(rng.Below(8)));
  }
  RegexPtr re = RandomRegex(small.alphabet(), 3, true, rng);
  auto small_answers = EvalPathQuery(small, *re);
  Relation big_answers(2);
  for (const auto& [x, y] : EvalPathQuery(big, *re)) {
    big_answers.Insert({x, y});
  }
  for (const auto& [x, y] : small_answers) {
    EXPECT_TRUE(big_answers.Contains({x, y})) << re->ToString(small.alphabet());
  }
}

// Inverse symmetry: (x,y) ∈ Q(D) iff (y,x) ∈ Q⁻(D).
TEST_P(PathQueryProperty, InverseExpressionSwapsAnswers) {
  Rng rng(GetParam() * 13);
  GraphDb db = RandomGraph(8, 16, {"a", "b"}, GetParam() + 1000);
  RegexPtr re = RandomRegex(db.alphabet(), 3, true, rng);
  RegexPtr inv = re->InverseExpression();
  auto fwd = EvalPathQuery(db, *re);
  Relation bwd(2);
  for (const auto& [x, y] : EvalPathQuery(db, *inv)) bwd.Insert({x, y});
  EXPECT_EQ(fwd.size(), bwd.size());
  for (const auto& [x, y] : fwd) {
    EXPECT_TRUE(bwd.Contains({y, x})) << re->ToString(db.alphabet());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathQueryProperty,
                         ::testing::Range<uint64_t>(1, 21));

// --- Relational / Datalog ----------------------------------------------------

using DatalogProperty = SeededTest;

// Naive and semi-naive evaluation agree on every program/database pair.
TEST_P(DatalogProperty, EvaluationModesAgree) {
  const char* programs[] = {
      R"(tc(X, Y) :- e(X, Y).
         tc(X, Z) :- tc(X, Y), e(Y, Z).
         ?- tc.)",
      R"(tc(X, Y) :- e(X, Y).
         tc(X, Z) :- tc(X, Y), tc(Y, Z).
         ?- tc.)",
      R"(even(X, Y) :- e(X, Y).
         even(X, Z) :- odd(X, Y), e(Y, Z).
         odd(X, Z) :- even(X, Y), e(Y, Z).
         ?- even.)",
  };
  GraphDb graph = RandomGraph(10, 20, {"e"}, GetParam());
  Database db = GraphToDatabase(graph);
  for (const char* text : programs) {
    DatalogProgram program = ParseDatalog(text).value();
    Relation naive =
        EvalDatalogGoal(program, db, DatalogEvalMode::kNaive).value();
    Relation semi =
        EvalDatalogGoal(program, db, DatalogEvalMode::kSemiNaive).value();
    EXPECT_EQ(naive.SortedTuples(), semi.SortedTuples()) << text;
  }
}

// Datalog evaluation is monotone in the EDB.
TEST_P(DatalogProperty, EvaluationIsMonotone) {
  DatalogProgram program = ParseDatalog(R"(
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    ?- tc.
  )")
                               .value();
  GraphDb small = RandomGraph(9, 12, {"e"}, GetParam());
  Database small_db = GraphToDatabase(small);
  Database big_db = GraphToDatabase(small);
  Rng rng(GetParam() * 3);
  Relation* e = big_db.FindMutable("e");
  for (int i = 0; i < 5; ++i) {
    e->Insert({rng.Below(9), rng.Below(9)});
  }
  Relation a = EvalDatalogGoal(program, small_db).value();
  Relation b = EvalDatalogGoal(program, big_db).value();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(b.Contains(a.row(i)));
}

// CQ evaluation agrees with its own canonical database: the frozen head is
// always answered (identity homomorphism).
TEST_P(DatalogProperty, CanonicalDatabaseAnswersItsQuery) {
  Rng rng(GetParam() * 17);
  for (int i = 0; i < 10; ++i) {
    ConjunctiveQuery q = RandomBinaryCq(1 + rng.Below(5), 5, 3, rng);
    Database canonical = q.CanonicalDatabase();
    Relation answers = EvalCq(canonical, q).value();
    EXPECT_TRUE(answers.Contains(q.FrozenHead())) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogProperty,
                         ::testing::Range<uint64_t>(1, 21));

// --- RQ / translations ---------------------------------------------------------

using RqProperty = SeededTest;

// The §4.1 embedding preserves semantics on random inputs, for a random
// query assembled from the full operator set.
TEST_P(RqProperty, DatalogTranslationAgrees) {
  Rng rng(GetParam() * 97);
  // Random binary RQ over labels r, s built recursively.
  std::function<RqExprPtr(int, VarId, VarId, uint32_t*)> build =
      [&](int depth, VarId from, VarId to, uint32_t* next) -> RqExprPtr {
    if (depth <= 0 || rng.Chance(0.4)) {
      const char* label = rng.Chance(0.5) ? "r" : "s";
      return rng.Chance(0.5) ? RqExpr::Atom(label, {from, to})
                             : RqExpr::Atom(label, {to, from});
    }
    switch (rng.Below(3)) {
      case 0: {  // composition
        VarId m = (*next)++;
        RqExprPtr left = build(depth - 1, from, m, next);
        RqExprPtr right = build(depth - 1, m, to, next);
        return RqExpr::Exists({m}, RqExpr::And({left, right}));
      }
      case 1: {  // union
        RqExprPtr a = build(depth - 1, from, to, next);
        RqExprPtr b = build(depth - 1, from, to, next);
        if (a->FreeVars() != b->FreeVars()) return a;
        return RqExpr::Or({a, b});
      }
      default:  // closure
        return RqExpr::Closure(from, to, build(depth - 1, from, to, next));
    }
  };
  uint32_t next = 2;
  RqQuery query;
  query.root = build(3, 0, 1, &next);
  query.head = {0, 1};
  auto program = RqToDatalog(query);
  ASSERT_TRUE(program.ok());
  GraphDb graph = RandomGraph(7, 14, {"r", "s"}, GetParam() + 5);
  Database db = GraphToDatabase(graph);
  Relation direct = EvalRqQuery(db, query).value();
  Relation translated = EvalDatalogGoal(*program, db).value();
  EXPECT_EQ(direct.SortedTuples(), translated.SortedTuples())
      << query.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RqProperty,
                         ::testing::Range<uint64_t>(1, 31));

}  // namespace
}  // namespace rq
