// Differential tests for the front door's eval routes (ctest label
// `sanitize-pathquery`): a query that lies on the 2RPQ rung runs as one
// lane-kernel call (query/query.h Evaluate), and must answer row for row
// what its class's engine answers: EvalUc2Rpq's join for chain C2RPQs,
// EvalRqQuery's algebra for binary RQs, EvalDatalogGoal's semi-naive
// fixpoint for linear chain Datalog. The graphs are seeded random graphs
// with isolated nodes and a label, `u`, that no query names. Shapes that
// do not lower keep the engine's answer or error, and every eval notes
// its route in the query's profile as `eval.route`.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "graph/generators.h"
#include "obs/profile.h"
#include "pathquery/to_datalog.h"
#include "query/query.h"
#include "regex/regex.h"
#include "rq/eval.h"

namespace rq {
namespace {

// A random graph over a, b, c and u, plus `isolated` nodes with no edge.
EvalTarget RandomTarget(uint64_t seed, size_t isolated = 3) {
  Rng rng(seed * 6151);
  const size_t num_nodes = 6 + rng.Below(40);
  GraphDb db = RandomGraph(num_nodes, num_nodes + rng.Below(2 * num_nodes),
                           {"a", "b", "c", "u"}, seed);
  for (size_t i = 0; i < isolated; ++i) db.AddNode();
  return EvalTarget(std::make_shared<const GraphDb>(std::move(db)));
}

// The labels queries draw from: the graph's first three, in its order.
Alphabet QueryLabels() {
  Alphabet labels;
  for (const char* name : {"a", "b", "c"}) labels.InternLabel(name);
  return labels;
}

struct Routed {
  Result<SortedRows> rows;
  std::string route;
};

// Parses and evaluates `text` through the front door under a profile.
Routed EvaluateRouted(const std::string& cls, const std::string& text,
                      const EvalTarget& target) {
  Result<ParsedQuery> query =
      ParseQuery(cls, text, target.graph->alphabet());
  RQ_CHECK(query.ok());
  obs::QueryProfile profile;
  ExecContext ctx;
  profile.Begin("route_test", cls, text, &ctx);
  Result<SortedRows> rows = [&] {
    ScopedExecContext scoped(&ctx);
    return Evaluate(*query, target);
  }();
  profile.End();
  return {std::move(rows), profile.notes()["eval.route"]};
}

// The engine's answer for `text`, sorted, or its error.
Result<SortedRows> EngineRows(const std::string& cls, const std::string& text,
                              const EvalTarget& target) {
  Result<ParsedQuery> query =
      ParseQuery(cls, text, target.graph->alphabet());
  RQ_CHECK(query.ok());
  Result<Relation> answer = [&]() -> Result<Relation> {
    if (cls == "crpq") {
      return EvalUc2Rpq(*target.snapshot, std::get<Uc2Rpq>(*query));
    }
    if (cls == "rq") {
      return EvalRqQuery(*target.database, std::get<RqQuery>(*query));
    }
    return EvalDatalogGoal(std::get<DatalogProgram>(*query),
                           *target.database);
  }();
  if (!answer.ok()) return answer.status();
  return SortRows(*answer);
}

void ExpectSameRows(const Result<SortedRows>& actual,
                    const Result<SortedRows>& expected,
                    const std::string& context) {
  ASSERT_EQ(actual.ok(), expected.ok()) << context;
  if (!actual.ok()) {
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString())
        << context;
    return;
  }
  EXPECT_EQ(actual->arity, expected->arity) << context;
  EXPECT_EQ(actual->rows, expected->rows) << context;
  EXPECT_EQ(actual->values, expected->values) << context;
}

// Evaluates `text` both ways and expects `route` and the engine's rows.
void ExpectRoute(const std::string& cls, const std::string& text,
                 const EvalTarget& target, const std::string& route) {
  Routed routed = EvaluateRouted(cls, text, target);
  EXPECT_EQ(routed.route, route) << cls << ": " << text;
  ExpectSameRows(routed.rows, EngineRows(cls, text, target),
                 cls + ": " + text);
}

// An atom regex: random 2RPQs, and atoms whose language holds ε.
std::string AtomRegex(const Alphabet& labels, Rng& rng) {
  static const char* const kFixed[] = {"a*", "b?", "c-", "a- b*",
                                       "(a | b-)+", "()"};
  if (rng.Chance(0.4)) return kFixed[rng.Below(std::size(kFixed))];
  return RandomRegex(labels, 2, /*allow_inverse=*/true, rng)
      ->ToString(labels);
}

// One chain disjunct of 1-4 atoms from x to y, each written in either
// direction, in shuffled order.
std::string ChainDisjunct(const Alphabet& labels, Rng& rng) {
  const size_t num_atoms = 1 + rng.Below(4);
  std::vector<std::string> atoms;
  std::string prev = "x";
  for (size_t i = 0; i < num_atoms; ++i) {
    const std::string next =
        i + 1 == num_atoms ? "y" : "z" + std::to_string(i);
    const bool backwards = rng.Chance(0.5);
    atoms.push_back("(" + AtomRegex(labels, rng) + ")(" +
                    (backwards ? next : prev) + ", " +
                    (backwards ? prev : next) + ")");
    prev = next;
  }
  for (size_t i = atoms.size(); i > 1; --i) {
    std::swap(atoms[i - 1], atoms[rng.Below(i)]);
  }
  std::string text = "q(x, y) :- ";
  for (size_t i = 0; i < atoms.size(); ++i) {
    text += (i == 0 ? "" : ", ") + atoms[i];
  }
  return text;
}

TEST(RouteDifferentialTest, ChainC2rpqsMatchTheJoin) {
  const Alphabet labels = QueryLabels();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const EvalTarget target = RandomTarget(seed);
    Rng rng(seed * 1009);
    std::string text = ChainDisjunct(labels, rng);
    for (uint64_t more = rng.Below(3); more > 0; --more) {
      text += "\n" + ChainDisjunct(labels, rng);
    }
    ExpectRoute("crpq", text, target, "kernel");
  }
}

// A binary RQ from `from` to `to`: atoms either way round, unions,
// closures and chains through fresh existential variables.
std::string BinaryRq(const std::string& from, const std::string& to,
                     int depth, int* fresh, Rng& rng) {
  static const char* const kLabels[] = {"a", "b", "c"};
  const uint64_t pick = depth <= 0 ? 0 : rng.Below(4);
  if (pick == 0) {
    const std::string label = kLabels[rng.Below(3)];
    return rng.Chance(0.5) ? label + "(" + from + ", " + to + ")"
                           : label + "(" + to + ", " + from + ")";
  }
  if (pick == 1) {
    return "(" + BinaryRq(from, to, depth - 1, fresh, rng) + " | " +
           BinaryRq(from, to, depth - 1, fresh, rng) + ")";
  }
  if (pick == 2) {
    return "tc[" + from + ", " + to + "](" +
           BinaryRq(from, to, depth - 1, fresh, rng) + ")";
  }
  const std::string mid = "z" + std::to_string((*fresh)++);
  return "exists[" + mid + "](" + BinaryRq(from, mid, depth - 1, fresh, rng) +
         " & " + BinaryRq(mid, to, depth - 1, fresh, rng) + ")";
}

TEST(RouteDifferentialTest, BinaryRqsMatchTheAlgebra) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const EvalTarget target = RandomTarget(seed);
    Rng rng(seed * 7001);
    int fresh = 0;
    const std::string text =
        "q(x, y) := " + BinaryRq("x", "y", 3, &fresh, rng);
    ExpectRoute("rq", text, target, "kernel");
  }
}

TEST(RouteDifferentialTest, PathQueryDatalogMatchesSemiNaive) {
  const Alphabet labels = QueryLabels();
  std::vector<std::string> regexes = {"a*", "(a | b-)* c?", "()", "a b- c",
                                      "u"};
  Rng rng(99);
  for (int i = 0; i < 25; ++i) {
    regexes.push_back(
        RandomRegex(labels, 3, /*allow_inverse=*/true, rng)->ToString(labels));
  }
  for (size_t i = 0; i < regexes.size(); ++i) {
    const EvalTarget target = RandomTarget(i + 1);
    Alphabet alphabet = target.graph->alphabet();
    auto regex = ParseRegex(regexes[i], &alphabet);
    ASSERT_TRUE(regex.ok()) << regexes[i];
    auto program = PathQueryToDatalog(**regex, alphabet);
    ASSERT_TRUE(program.ok()) << regexes[i];
    ExpectRoute("datalog", program->ToString(), target, "kernel");
  }
}

// D names one label, so only the nodes with an outgoing `a` edge (or an
// incoming one) answer the empty word.
TEST(RouteDifferentialTest, DomainRuleStopsEpsilonAnswersAtD) {
  for (const char* domain : {"d(X) :- a(X, Y).", "d(Y) :- a(X, Y)."}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      const EvalTarget target = RandomTarget(seed);
      const std::string text = std::string(domain) +
                               "\np(X, X) :- d(X)."
                               "\np(X, Z) :- p(X, Y), b(Y, Z)."
                               "\np(X, Z) :- p(X, Y), c(Z, Y)."
                               "\nans(X, Y) :- p(X, Y)."
                               "\n?- ans.";
      ExpectRoute("datalog", text, target, "kernel");
      Routed routed = EvaluateRouted("datalog", text, target);
      ASSERT_TRUE(routed.rows.ok());
      const SortedRows& rows = *routed.rows;
      const Symbol a =
          ForwardSymbolOf(target.graph->alphabet().FindLabel("a").value());
      const Symbol step = domain[2] == 'X' ? a : InverseSymbol(a);
      for (size_t i = 0; i < rows.size(); ++i) {
        const NodeId x = static_cast<NodeId>(rows.row(i)[0]);
        EXPECT_FALSE(target.snapshot->Successors(x, step).empty())
            << domain << " answered from node " << x;
      }
    }
  }
}

TEST(RouteDifferentialTest, ShapesThatDoNotLowerKeepTheEngine) {
  const EvalTarget target = RandomTarget(5);
  // C2RPQs that are not one chain from head[0] to head[1].
  for (const char* text :
       {"q(x, y) :- (a)(x, y), (b)(y, z), (c)(z, x)",
        "q(x, x) :- (a)(x, z), (b)(z, x)", "q(x) :- (a b)(x, z)",
        "q(x, y) :- (a)(x, y), (b)(x, z)",
        "q(x, y) :- (a)(x, y), (b)(z, w), (c)(w, z)",
        "q(x, y) :- (a)(x, x), (b)(x, y)"}) {
    ExpectRoute("crpq", text, target, "join");
  }
  // RQs off the 2RPQ fragment: a conjunction of parallel paths, a
  // selection, a unary head, and projections that reuse a name (two
  // variables, not one middle).
  for (const char* text :
       {"q(x, y) := a(x, y) & b(x, y)", "q(x, y) := eq[x, y](a(x, y))",
        "q(x) := exists[t](a(x, t) & b(t, x))",
        "q(x, y) := exists[t](a(x, t)) & exists[t](b(t, y))",
        "q(x, y) := tc[x, y](exists[t](a(x, t)) & exists[t](b(t, y)))"}) {
    ExpectRoute("rq", text, target, "rq-algebra");
  }
  // Programs off the linear chain shape.
  const char* const kPrograms[] = {
      // A linear chain whose IDB predicate is named like a graph label:
      // the engine's error.
      "d(X) :- a(X, Y).\nu(X, X) :- d(X).\nu(X, Z) :- u(X, Y), b(Y, Z).\n"
      "?- u.",
      // Graph labels read as EDB atoms of arity three and one: the
      // engine's arity errors.
      "d(X) :- a(X, Y).\np(X, X) :- d(X).\np(X, Z) :- p(X, Y), c(Y, Z, W)."
      "\n?- p.",
      "d(X) :- a(X, Y).\np(X, X) :- d(X).\np(X, Z) :- p(X, Z), b(Z).\n?- p.",
      // Two different domain predicates.
      "d(X) :- a(X, Y).\ne(Y) :- b(X, Y).\np(X, X) :- d(X).\n"
      "p(X, X) :- e(X).\np(X, Z) :- p(X, Y), c(Y, Z).\n?- p.",
      // A nonlinear rule.
      "d(X) :- a(X, Y).\np(X, X) :- d(X).\np(X, Z) :- p(X, Y), b(Y, Z).\n"
      "p(X, Z) :- p(X, Y), p(Y, Z).\n?- p.",
      // A base rule over the EDB, as in hand-written closures.
      "p(X, Y) :- a(X, Y).\np(X, Z) :- p(X, Y), a(Y, Z).\n?- p.",
  };
  for (const char* text : kPrograms) {
    ExpectRoute("datalog", text, target, "semi-naive");
  }
  const Routed named_like_label =
      EvaluateRouted("datalog", kPrograms[0], target);
  ASSERT_FALSE(named_like_label.rows.ok());
  EXPECT_NE(named_like_label.rows.status().message().find(
                "also present in the EDB"),
            std::string::npos);
}

TEST(RouteDifferentialTest, EachEvalNotesItsRoute) {
  const EvalTarget target = RandomTarget(3);
  const struct {
    const char* cls;
    const char* text;
    const char* route;
  } kCases[] = {
      {"path", "a+ b-", "kernel"},
      {"crpq", "q(x, y) :- (a)(x, z), (b)(y, z)", "kernel"},
      {"crpq", "q(x, y) :- (a)(x, y), (b)(x, y)", "join"},
      {"rq", "q(x, y) := exists[z](a(x, z) & tc[z, y](b(z, y)))", "kernel"},
      {"rq", "q(x, y) := a(x, y) & b(y, x)", "rq-algebra"},
      {"datalog",
       "d(X) :- a(X, Y).\np(X, X) :- d(X).\np(X, Z) :- p(X, Y), b(Y, Z).\n"
       "?- p.",
       "kernel"},
      {"datalog", "p(X, Y) :- a(X, Y).\n?- p.", "semi-naive"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(EvaluateRouted(c.cls, c.text, target).route, c.route)
        << c.cls << ": " << c.text;
  }
}

}  // namespace
}  // namespace rq
