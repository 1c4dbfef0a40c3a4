// Differential test of the chain collapse in CheckUc2RpqContainment
// (ctest label `sanitize-containment`). Random pairs of chain-shaped
// UC2RPQs — ε atoms, inverse atoms, atoms written backwards, reversed
// heads and unions of chains — are decided twice: by the collapse
// (TryLowerUc2Rpq on both sides, then Theorem 5's fold) and by the
// expansion search, reached by giving q1 an atom that always holds but
// that the collapse refuses (a self-loop whose language holds ε). The
// collapse must never prove what the search refutes, must agree wherever
// the search is exact, and every refutation must separate the queries
// under EvalUc2Rpq.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crpq/crpq.h"
#include "regex/regex.h"

namespace rq {
namespace {

struct Atom {
  std::string regex;
  std::string from;
  std::string to;
};

// One chain x -> z0 -> z1 -> y, its atoms in any order and direction.
struct Chain {
  bool reversed_head = false;  // q(y, x) instead of q(x, y)
  std::vector<Atom> atoms;
};

using Union = std::vector<Chain>;

// Atom languages: finite ones (the search can finish), ε atoms, inverse
// atoms, and two infinite ones.
const char* const kRegexes[] = {"a",   "b",      "a-",   "b-",
                                "a?",  "b?",     "()",   "a b",
                                "a | b-", "a a-", "(a | b)?", "a- b",
                                "a+",  "(b-)*"};

std::string RandomRegex(Rng& rng) {
  return kRegexes[rng.Below(std::size(kRegexes))];
}

Chain RandomChain(Rng& rng) {
  Chain chain;
  chain.reversed_head = rng.Chance(0.3);
  const size_t num_atoms = 1 + rng.Below(3);
  std::string prev = "x";
  for (size_t i = 0; i < num_atoms; ++i) {
    const std::string next =
        i + 1 == num_atoms ? "y" : "z" + std::to_string(i);
    if (rng.Chance(0.4)) {
      chain.atoms.push_back({RandomRegex(rng), next, prev});
    } else {
      chain.atoms.push_back({RandomRegex(rng), prev, next});
    }
    prev = next;
  }
  for (size_t i = chain.atoms.size(); i > 1; --i) {
    std::swap(chain.atoms[i - 1], chain.atoms[rng.Below(i)]);
  }
  return chain;
}

Union RandomUnion(Rng& rng) {
  Union u;
  const size_t num_chains = 1 + rng.Below(2);
  for (size_t i = 0; i < num_chains; ++i) u.push_back(RandomChain(rng));
  return u;
}

// q2 from q1: widened atoms (q1 ⊑ q2), atoms turned round through their
// inverse expressions (same meaning), or one atom replaced (anything);
// sometimes one more random chain.
Union Derive(const Union& q1, const Alphabet& alphabet, Rng& rng) {
  if (rng.Chance(0.25)) return RandomUnion(rng);
  Union q2 = q1;
  const bool widen = rng.Chance(0.6);
  for (Chain& chain : q2) {
    for (Atom& atom : chain.atoms) {
      if (rng.Chance(0.3)) {
        Alphabet labels = alphabet;
        atom.regex = ParseRegex(atom.regex, &labels)
                         .value()
                         ->InverseExpression()
                         ->ToString(labels);
        std::swap(atom.from, atom.to);
      }
      if (widen && rng.Chance(0.4)) {
        atom.regex = "(" + atom.regex + ")" + (rng.Chance(0.5) ? "?" : " | a");
      }
    }
    if (!widen) {
      chain.atoms[rng.Below(chain.atoms.size())].regex = RandomRegex(rng);
    }
  }
  if (rng.Chance(0.3)) q2.push_back(RandomChain(rng));
  return q2;
}

// One disjunct per line; `side`, when given, is an atom on x added to
// each.
std::string Text(const Union& u, const std::string& side = "") {
  std::string text;
  for (const Chain& chain : u) {
    text += chain.reversed_head ? "q(y, x) :- " : "q(x, y) :- ";
    for (size_t i = 0; i < chain.atoms.size(); ++i) {
      const Atom& atom = chain.atoms[i];
      text += (i == 0 ? "(" : ", (") + atom.regex + ")(" + atom.from + ", " +
              atom.to + ")";
    }
    if (!side.empty()) text += ", (" + side + ")(x, x)";
    text += "\n";
  }
  return text;
}

// A refutation's graph: q1 answers the witness tuple on it, q2 does not.
void ExpectSeparates(const Uc2Rpq& q1, const Uc2Rpq& q2,
                     const CrpqContainmentResult& result,
                     const std::string& context) {
  ASSERT_TRUE(result.counterexample.has_value()) << context;
  Relation a1 = EvalUc2Rpq(*result.counterexample, q1).value();
  Relation a2 = EvalUc2Rpq(*result.counterexample, q2).value();
  EXPECT_TRUE(a1.Contains(result.witness_tuple))
      << result.method << ": " << context;
  EXPECT_FALSE(a2.Contains(result.witness_tuple))
      << result.method << ": " << context;
}

TEST(ChainContainmentDifferentialTest, CollapseAgreesWithExpansionSearch) {
  // Always-true side atoms: each language holds ε.
  const char* const kSides[] = {"()", "a?", "b*"};
  int proved = 0;
  int refuted = 0;
  int exact = 0;
  int decided_past_the_bound = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7919);
    Alphabet alphabet;
    alphabet.InternLabel("a");
    alphabet.InternLabel("b");
    const Union u1 = RandomUnion(rng);
    const Union u2 = Derive(u1, alphabet, rng);
    const std::string t1 = Text(u1);
    const std::string t2 = Text(u2);
    const std::string sided = Text(u1, kSides[rng.Below(std::size(kSides))]);
    const std::string context = "seed " + std::to_string(seed) + "\nq1:\n" +
                                t1 + "q2:\n" + t2 + "q1 with side atom:\n" +
                                sided;
    Uc2Rpq q1 = ParseUc2Rpq(t1, &alphabet).value();
    Uc2Rpq q2 = ParseUc2Rpq(t2, &alphabet).value();
    Uc2Rpq q1_sided = ParseUc2Rpq(sided, &alphabet).value();
    ASSERT_TRUE(TryLowerUc2Rpq(q1).has_value()) << context;
    ASSERT_TRUE(TryLowerUc2Rpq(q2).has_value()) << context;
    ASSERT_FALSE(TryLowerUc2Rpq(q1_sided).has_value()) << context;

    auto collapse = CheckUc2RpqContainment(q1, q2, alphabet);
    auto search = CheckUc2RpqContainment(q1_sided, q2, alphabet);
    ASSERT_TRUE(collapse.ok()) << context;
    ASSERT_TRUE(search.ok()) << context;
    EXPECT_EQ(collapse->method, "2rpq-fold") << context;
    ASSERT_NE(collapse->certainty, Certainty::kUnknownUpToBound) << context;
    EXPECT_NE(search->method, "2rpq-fold") << context;

    const bool search_exact = search->certainty == Certainty::kRefuted ||
                              search->method == "expansion-exact";
    if (search_exact) {
      ++exact;
      EXPECT_EQ(CertaintyName(collapse->certainty),
                CertaintyName(search->certainty))
          << context;
    } else {
      ++decided_past_the_bound;
    }
    for (const CrpqContainmentResult* result : {&*collapse, &*search}) {
      if (result->certainty == Certainty::kRefuted) {
        ExpectSeparates(q1, q2, *result, context);
      }
    }
    (collapse->certainty == Certainty::kProved ? proved : refuted) += 1;
  }
  // Both verdicts, both regimes of the search, in quantity.
  EXPECT_GE(proved, 100);
  EXPECT_GE(refuted, 100);
  EXPECT_GE(exact, 150);
  EXPECT_GE(decided_past_the_bound, 40);
}

}  // namespace
}  // namespace rq
