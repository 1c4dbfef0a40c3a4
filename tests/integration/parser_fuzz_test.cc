// Parser robustness: random garbage and mutated valid inputs must produce
// clean errors (or valid parses), never crashes, across all five parsers;
// nesting stops at kMaxNesting in every syntax, however deep the input; and
// printing and reparsing generated queries gives back the same text, the
// same variable numbering and the same label interning order.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/scanner.h"
#include "crpq/crpq.h"
#include "datalog/program.h"
#include "datalog/random.h"
#include "pathquery/path_query.h"
#include "regex/regex.h"
#include "relational/cq.h"
#include "rq/parser.h"
#include "rq/raise.h"

namespace rq {
namespace {

std::string RandomGarbage(Rng& rng, size_t max_len) {
  static constexpr char kChars[] =
      "abcxyz_0189 ()[]{},.:-|&*+?=<>!@#\n\t";
  std::string out;
  size_t len = rng.Below(max_len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kChars[rng.Below(sizeof(kChars) - 1)]);
  }
  return out;
}

std::string Mutate(const std::string& base, Rng& rng) {
  std::string out = base;
  size_t edits = 1 + rng.Below(3);
  for (size_t e = 0; e < edits && !out.empty(); ++e) {
    size_t pos = rng.Below(out.size());
    switch (rng.Below(3)) {
      case 0:
        out.erase(pos, 1);
        break;
      case 1:
        out.insert(pos, 1, "()|&,.:-"[rng.Below(8)]);
        break;
      default:
        out[pos] = "abxyz()[],"[rng.Below(10)];
        break;
    }
  }
  return out;
}

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RegexParserNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Alphabet alphabet;
    auto result = ParseRegex(RandomGarbage(rng, 30), &alphabet);
    if (result.ok()) {
      // A successful parse must round-trip.
      std::string printed = (*result)->ToString(alphabet);
      EXPECT_TRUE(ParseRegex(printed, &alphabet).ok()) << printed;
    }
  }
  for (int i = 0; i < 50; ++i) {
    Alphabet alphabet;
    auto result =
        ParseRegex(Mutate("a (b | c)* d-", rng), &alphabet);
    (void)result;  // ok or clean error, both fine
  }
}

TEST_P(ParserFuzzTest, CqParserNeverCrashes) {
  Rng rng(GetParam() * 3 + 1);
  for (int i = 0; i < 50; ++i) {
    auto result = ParseCq(RandomGarbage(rng, 40));
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
  for (int i = 0; i < 50; ++i) {
    auto result = ParseCq(Mutate("q(x, y) :- e(x, z), f(z, y)", rng));
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
}

TEST_P(ParserFuzzTest, DatalogParserNeverCrashes) {
  Rng rng(GetParam() * 7 + 2);
  const std::string base =
      "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n?- tc.";
  for (int i = 0; i < 40; ++i) {
    auto result = ParseDatalog(RandomGarbage(rng, 60));
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
  for (int i = 0; i < 40; ++i) {
    auto result = ParseDatalog(Mutate(base, rng));
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
}

TEST_P(ParserFuzzTest, RqParserNeverCrashes) {
  Rng rng(GetParam() * 11 + 3);
  const std::string base =
      "q(x, y) := tc[x,y]( exists[z]( r(x,y) & r(y,z) & r(z,x) ) )";
  for (int i = 0; i < 40; ++i) {
    auto result = ParseRq(RandomGarbage(rng, 50));
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
      // Round trip.
      EXPECT_TRUE(ParseRq(result->ToString()).ok());
    }
  }
  for (int i = 0; i < 40; ++i) {
    auto result = ParseRq(Mutate(base, rng));
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
}

TEST_P(ParserFuzzTest, CrpqParserNeverCrashes) {
  Rng rng(GetParam() * 13 + 4);
  const std::string base = "q(x, y) :- (knows+)(x, z), (member-)(z, y)";
  for (int i = 0; i < 40; ++i) {
    Alphabet alphabet;
    auto result = ParseCrpq(RandomGarbage(rng, 50), &alphabet);
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
  for (int i = 0; i < 40; ++i) {
    Alphabet alphabet;
    auto result = ParseCrpq(Mutate(base, rng), &alphabet);
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
}

TEST_P(ParserFuzzTest, GraphParserNeverCrashes) {
  Rng rng(GetParam() * 17 + 5);
  for (int i = 0; i < 40; ++i) {
    auto result = GraphDb::FromText(RandomGarbage(rng, 80));
    if (result.ok()) {
      // Round trip.
      EXPECT_TRUE(GraphDb::FromText(result->ToText()).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Nesting bound
// ---------------------------------------------------------------------------

std::string Repeat(std::string_view piece, size_t n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (size_t i = 0; i < n; ++i) out.append(piece);
  return out;
}

// `inner` inside `levels` pairs of `open` ... ')'.
std::string Nested(std::string_view open, std::string_view inner,
                   size_t levels) {
  return Repeat(open, levels) + std::string(inner) + Repeat(")", levels);
}

template <typename T>
bool IsInvalidArgument(const Result<T>& result) {
  return result.status().code() == StatusCode::kInvalidArgument;
}

// Runs `parse` on a fresh std::thread, the kind of thread a connection's
// reader runs on.
template <typename Parse>
void OnThread(Parse parse) {
  std::thread thread(parse);
  thread.join();
}

TEST(ParserNestingTest, RegexParenthesesStopAtTheBound) {
  Alphabet alphabet;
  EXPECT_TRUE(ParseRegex(Nested("(", "a", kMaxNesting), &alphabet).ok());
  EXPECT_TRUE(IsInvalidArgument(
      ParseRegex(Nested("(", "a", kMaxNesting + 1), &alphabet)));
  EXPECT_TRUE(
      ParsePathQuery(Nested("(", "a b", kMaxNesting), &alphabet).ok());
  EXPECT_TRUE(IsInvalidArgument(
      ParsePathQuery(Nested("(", "a b", kMaxNesting + 1), &alphabet)));
}

TEST(ParserNestingTest, EachPostfixOperatorIsOneLevel) {
  Alphabet alphabet;
  EXPECT_TRUE(ParseRegex("a" + Repeat("+", kMaxNesting), &alphabet).ok());
  EXPECT_TRUE(IsInvalidArgument(
      ParseRegex("a" + Repeat("?", kMaxNesting + 1), &alphabet)));
  // An operator nests below its operand's deepest point: `(a)+` is two
  // levels, so parentheses and operators add up.
  size_t half = kMaxNesting / 2;
  std::string operand = Nested("(", "a", half);
  EXPECT_TRUE(
      ParseRegex(operand + Repeat("*", kMaxNesting - half), &alphabet).ok());
  EXPECT_TRUE(IsInvalidArgument(ParseRegex(
      operand + Repeat("*", kMaxNesting - half + 1), &alphabet)));
  // The empty word `()` is a parenthesis too.
  EXPECT_TRUE(
      ParseRegex("()" + Repeat("*", kMaxNesting - 1), &alphabet).ok());
  EXPECT_TRUE(IsInvalidArgument(
      ParseRegex("()" + Repeat("*", kMaxNesting), &alphabet)));
  // Operators inside a group count toward the operators after it.
  std::string inner = Nested("(", "a" + Repeat("+", half), 1);
  EXPECT_TRUE(ParseRegex(inner + Repeat("+", kMaxNesting - half - 1),
                         &alphabet)
                  .ok());
  EXPECT_TRUE(IsInvalidArgument(
      ParseRegex(inner + Repeat("+", kMaxNesting - half), &alphabet)));
}

TEST(ParserNestingTest, CrpqAtomParenthesisIsTheFirstLevel) {
  Alphabet alphabet;
  auto query = [](size_t levels) {
    return "q(x, y) :- " + Nested("(", "a", levels) + "(x, y)";
  };
  EXPECT_TRUE(ParseCrpq(query(kMaxNesting), &alphabet).ok());
  EXPECT_TRUE(IsInvalidArgument(ParseCrpq(query(kMaxNesting + 1), &alphabet)));
  EXPECT_TRUE(ParseUc2Rpq(query(kMaxNesting), &alphabet).ok());
  EXPECT_TRUE(
      IsInvalidArgument(ParseUc2Rpq(query(kMaxNesting + 1), &alphabet)));
}

TEST(ParserNestingTest, RqParenthesesAndOperatorBodiesStopAtTheBound) {
  auto parens = [](size_t levels) {
    return "q(x, y) := " + Nested("(", "r(x, y)", levels);
  };
  EXPECT_TRUE(ParseRq(parens(kMaxNesting)).ok());
  EXPECT_TRUE(IsInvalidArgument(ParseRq(parens(kMaxNesting + 1))));
  for (const char* op : {"tc[x, y](", "eq[x, y]("}) {
    EXPECT_TRUE(ParseRq(Nested(op, "r(x, y)", kMaxNesting)).ok()) << op;
    EXPECT_TRUE(IsInvalidArgument(ParseRq(Nested(op, "r(x, y)",
                                                 kMaxNesting + 1))))
        << op;
  }
  auto exists = [](size_t levels) {
    return "exists[z](" + Nested("(", "r(x, z)", levels - 1) + ")";
  };
  EXPECT_TRUE(ParseRq(exists(kMaxNesting)).ok());
  EXPECT_TRUE(IsInvalidArgument(ParseRq(exists(kMaxNesting + 1))));
}

// CQ, UCQ and Datalog bodies are flat: an atom's variable list is the only
// parenthesis they have, so any nesting at all is a clean error.
TEST(ParserNestingTest, FlatSyntaxesRejectNesting) {
  EXPECT_TRUE(IsInvalidArgument(ParseCq("q(x) :- ((e(x, x)))")));
  EXPECT_TRUE(IsInvalidArgument(ParseUcq("q(x) :- e((x), x)")));
  EXPECT_TRUE(IsInvalidArgument(ParseDatalog("p(X) :- ((e(X, X))).")));
}

TEST(ParserNestingTest, HundredThousandLevelsReturnCleanlyOnAThread) {
  constexpr size_t kDeep = 100000;
  OnThread([] {
    Alphabet alphabet;
    EXPECT_TRUE(IsInvalidArgument(
        ParseRegex(Nested("(", "a", kDeep), &alphabet)));
    EXPECT_TRUE(IsInvalidArgument(
        ParseRegex("a" + Repeat("+?", kDeep), &alphabet)));
    EXPECT_TRUE(IsInvalidArgument(
        ParsePathQuery(Nested("(", "a", kDeep) + "*", &alphabet)));
    EXPECT_TRUE(IsInvalidArgument(ParseCrpq(
        "q(x, y) :- (" + Nested("(", "a", kDeep) + ")(x, y)", &alphabet)));
    EXPECT_TRUE(IsInvalidArgument(ParseUc2Rpq(
        "q(x, y) :- (a" + Repeat("*", kDeep) + ")(x, y)", &alphabet)));
    EXPECT_TRUE(IsInvalidArgument(
        ParseRq(Nested("exists[z](", "r(x, z)", kDeep))));
    EXPECT_TRUE(IsInvalidArgument(
        ParseRq("q(x) := " + Nested("(", "r(x)", kDeep))));
    EXPECT_TRUE(IsInvalidArgument(
        ParseCq("q(x) :- " + Nested("(", "e(x, x)", kDeep))));
    EXPECT_TRUE(IsInvalidArgument(
        ParseDatalog("p(X) :- " + Nested("(", "e(X, X)", kDeep) + ".")));
  });
}

// ---------------------------------------------------------------------------
// Print -> parse -> print round trips
// ---------------------------------------------------------------------------

// The distinct names of `names`, in first-occurrence order: how every
// parser numbers variables and interns labels.
std::vector<std::string> FirstOccurrences(
    const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const std::string& name : names) {
    if (std::find(out.begin(), out.end(), name) == out.end()) {
      out.push_back(name);
    }
  }
  return out;
}

void CollectLabels(const Regex& re, const Alphabet& alphabet,
                   std::vector<std::string>* out) {
  if (re.kind() == RegexKind::kAtom) {
    out->push_back(alphabet.LabelName(SymbolLabel(re.symbol())));
  }
  for (const RegexPtr& child : re.children()) {
    CollectLabels(*child, alphabet, out);
  }
}

std::vector<std::string> LabelNames(const Alphabet& alphabet) {
  std::vector<std::string> out;
  for (uint32_t l = 0; l < alphabet.num_labels(); ++l) {
    out.push_back(alphabet.LabelName(l));
  }
  return out;
}

TEST_P(ParserFuzzTest, RandomRegexesRoundTrip) {
  Rng rng(GetParam() * 19 + 6);
  Alphabet alphabet;
  for (const char* label : {"knows", "likes", "a", "b_2", "_c"}) {
    alphabet.InternLabel(label);
  }
  for (int i = 0; i < 40; ++i) {
    RegexPtr re = RandomRegex(alphabet, 4, /*allow_inverse=*/true, rng);
    std::string printed = re->ToString(alphabet);
    Alphabet fresh;
    auto reparsed = ParseRegex(printed, &fresh);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ((*reparsed)->ToString(fresh), printed);
    std::vector<std::string> labels;
    CollectLabels(*re, alphabet, &labels);
    EXPECT_EQ(LabelNames(fresh), FirstOccurrences(labels)) << printed;
  }
}

std::string CqVar(const ConjunctiveQuery& q, VarId v) {
  return v < q.var_names.size() ? q.var_names[v] : "v" + std::to_string(v);
}

TEST_P(ParserFuzzTest, RandomCqsRoundTrip) {
  Rng rng(GetParam() * 23 + 7);
  for (int i = 0; i < 40; ++i) {
    ConjunctiveQuery q = RandomBinaryCq(1 + rng.Below(5), 2 + rng.Below(4),
                                        1 + rng.Below(3), rng);
    std::string printed = q.ToString();
    auto reparsed = ParseCq(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(reparsed->ToString(), printed);
    std::vector<std::string> vars;
    for (VarId v : q.head) vars.push_back(CqVar(q, v));
    for (const CqAtom& atom : q.atoms) {
      for (VarId v : atom.vars) vars.push_back(CqVar(q, v));
    }
    EXPECT_EQ(reparsed->var_names, FirstOccurrences(vars)) << printed;
    EXPECT_EQ(reparsed->num_vars, reparsed->var_names.size());
  }
}

std::string RuleVar(const DatalogRule& rule, VarId v) {
  return v < rule.var_names.size() ? rule.var_names[v]
                                   : "V" + std::to_string(v);
}

void ExpectDatalogRoundTrip(const DatalogProgram& program) {
  std::string printed = program.ToString();
  auto reparsed = ParseDatalog(printed);
  ASSERT_TRUE(reparsed.ok()) << printed;
  EXPECT_EQ(reparsed->ToString(), printed);
  std::vector<std::string> predicates;
  ASSERT_EQ(reparsed->rules().size(), program.rules().size());
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const DatalogRule& rule = program.rules()[r];
    std::vector<std::string> vars;
    predicates.push_back(program.PredicateName(rule.head.predicate));
    for (VarId v : rule.head.vars) vars.push_back(RuleVar(rule, v));
    for (const DatalogAtom& atom : rule.body) {
      predicates.push_back(program.PredicateName(atom.predicate));
      for (VarId v : atom.vars) vars.push_back(RuleVar(rule, v));
    }
    EXPECT_EQ(reparsed->rules()[r].var_names, FirstOccurrences(vars))
        << RuleToString(program, rule);
  }
  std::vector<std::string> interned;
  for (PredId p = 0; p < reparsed->num_predicates(); ++p) {
    interned.push_back(reparsed->PredicateName(p));
  }
  EXPECT_EQ(interned, FirstOccurrences(predicates)) << printed;
}

TEST_P(ParserFuzzTest, RandomDatalogProgramsRoundTrip) {
  Rng rng(GetParam() * 29 + 8);
  for (int i = 0; i < 10; ++i) {
    ExpectDatalogRoundTrip(RandomDatalogProgram(RandomDatalogOptions{}, rng));
    ExpectDatalogRoundTrip(RandomGrqProgram(1 + rng.Below(4), rng));
  }
}

// Variable names in the order RqQuery::ToString prints them.
void CollectRqVars(const RqExpr& expr, const std::vector<std::string>& names,
                   std::vector<std::string>* out) {
  auto name = [&](VarId v) {
    return v < names.size() && !names[v].empty() ? names[v]
                                                 : "v" + std::to_string(v);
  };
  switch (expr.kind()) {
    case RqExpr::Kind::kAtom:
      for (VarId v : expr.atom_vars()) out->push_back(name(v));
      return;
    case RqExpr::Kind::kExists:
      for (VarId v : expr.bound_vars()) out->push_back(name(v));
      break;
    case RqExpr::Kind::kEq:
    case RqExpr::Kind::kClosure:
      out->push_back(name(expr.eq_a()));
      out->push_back(name(expr.eq_b()));
      break;
    default:
      break;
  }
  for (const RqExprPtr& child : expr.children()) {
    CollectRqVars(*child, names, out);
  }
}

TEST_P(ParserFuzzTest, RqRaisedFromRandomRegexesRoundTrips) {
  Rng rng(GetParam() * 31 + 9);
  Alphabet alphabet;
  for (const char* label : {"r", "s", "knows"}) alphabet.InternLabel(label);
  int raised = 0;
  for (int i = 0; i < 60; ++i) {
    RegexPtr re = RandomRegex(alphabet, 3, /*allow_inverse=*/true, rng);
    uint32_t next_var = 2;
    std::optional<RqExprPtr> root =
        RaiseRegexToRq(*re, 0, 1, alphabet, &next_var);
    if (!root.has_value()) continue;
    ++raised;
    RqQuery query;
    query.root = *root;
    query.head = {0, 1};
    std::string printed = query.ToString();
    auto reparsed = ParseRq(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(reparsed->ToString(), printed);
    std::vector<std::string> vars = {"v0", "v1"};
    CollectRqVars(*query.root, query.var_names, &vars);
    EXPECT_EQ(reparsed->var_names, FirstOccurrences(vars)) << printed;
  }
  EXPECT_GT(raised, 0);
}

// exists, tc and eq in turn, each around a conjunction or disjunction, so
// the body's own parentheses are its one nesting level: the query sits
// just under the bound, and so must its printed form.
TEST(ParserRoundTripTest, RqNestedJustUnderTheBoundRoundTrips) {
  std::string text = "r(x, y)";
  for (size_t level = 1; level < kMaxNesting; ++level) {
    std::string z = "z" + std::to_string(level);
    switch (level % 3) {
      case 0:
        text = "exists[" + z + "](r(x, " + z + ") & s(" + z + ", y) & " +
               text + ")";
        break;
      case 1:
        text = "tc[x, y](" + text + " | r(x, y))";
        break;
      default:
        text = "eq[x, y](" + text + " & r(x, y))";
        break;
    }
  }
  auto parsed = ParseRq("q(x, y) := " + text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string printed = parsed->ToString();
  auto reparsed = ParseRq(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(), printed);
}

}  // namespace
}  // namespace rq
