// Cross-engine consistency: the same query evaluated by independent
// implementations must agree. This is the library's main defense against
// subtle semantics bugs (semipath handling, folding, fixpoints).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "graph/generators.h"
#include "pathquery/containment.h"
#include "pathquery/path_query.h"
#include "pathquery/to_datalog.h"
#include "regex/regex.h"
#include "rq/eval.h"

namespace rq {
namespace {

// Nodes incident to at least one edge. The Datalog embedding of a path
// query quantifies over the active domain, while graph evaluation sees
// isolated nodes too; comparisons are restricted accordingly.
std::vector<bool> ActiveDomain(const GraphDb& graph) {
  std::vector<bool> active(graph.num_nodes(), false);
  for (const Edge& e : graph.edges()) {
    active[e.src] = true;
    active[e.dst] = true;
  }
  return active;
}

TEST(CrossEngineTest, PathQueryGraphBfsAgreesWithDatalogEmbedding) {
  Rng rng(1234);
  int compared = 0;
  for (int round = 0; round < 30; ++round) {
    GraphDb graph = RandomGraph(8, 16, {"a", "b"}, rng.Next());
    RegexPtr re = RandomRegex(graph.alphabet(), 3, /*allow_inverse=*/true,
                              rng);
    auto program = PathQueryToDatalog(*re, graph.alphabet());
    ASSERT_TRUE(program.ok()) << re->ToString(graph.alphabet());
    Database db = GraphToDatabase(graph);
    Relation via_datalog = EvalDatalogGoal(*program, db).value();

    std::vector<bool> active = ActiveDomain(graph);
    Relation via_bfs(2);
    for (const auto& [x, y] : EvalPathQuery(graph, *re)) {
      if (active[x] && active[y]) via_bfs.Insert({x, y});
    }
    EXPECT_EQ(via_bfs.SortedTuples(), via_datalog.SortedTuples())
        << re->ToString(graph.alphabet());
    ++compared;
  }
  EXPECT_EQ(compared, 30);
}

TEST(CrossEngineTest, SingleAtomCrpqAgreesWithPathQueryEval) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    GraphDb graph = RandomGraph(10, 22, {"a", "b", "c"}, rng.Next());
    RegexPtr re = RandomRegex(graph.alphabet(), 3, /*allow_inverse=*/true,
                              rng);
    Crpq query;
    query.num_vars = 2;
    query.head = {0, 1};
    query.atoms = {{re, 0, 1}};
    Relation via_crpq = EvalCrpq(graph, query).value();
    Relation via_path(2);
    for (const auto& [x, y] : EvalPathQuery(graph, *re)) {
      via_path.Insert({x, y});
    }
    EXPECT_EQ(via_crpq.SortedTuples(), via_path.SortedTuples());
  }
}

TEST(CrossEngineTest, ContainmentVerdictsMatchEvaluationOnRandomGraphs) {
  // For random 2RPQ pairs, a "contained" verdict must never be violated by
  // evaluation on random graphs; a "not contained" verdict must be
  // witnessed by its counterexample.
  Alphabet alphabet;
  alphabet.InternLabel("a");
  alphabet.InternLabel("b");
  Rng rng(31415);
  for (int round = 0; round < 25; ++round) {
    RegexPtr r1 = RandomRegex(alphabet, 2, /*allow_inverse=*/true, rng);
    RegexPtr r2 = RandomRegex(alphabet, 2, /*allow_inverse=*/true, rng);
    PathContainmentResult verdict =
        CheckPathQueryContainment(*r1, *r2, alphabet);
    if (verdict.contained) {
      for (int g = 0; g < 3; ++g) {
        GraphDb graph = RandomGraph(6, 12, {"a", "b"}, rng.Next());
        auto a1 = EvalPathQuery(graph, *r1);
        Relation a2(2);
        for (const auto& [x, y] : EvalPathQuery(graph, *r2)) {
          a2.Insert({x, y});
        }
        for (const auto& [x, y] : a1) {
          EXPECT_TRUE(a2.Contains({x, y}))
              << r1->ToString(alphabet) << " ⊑ " << r2->ToString(alphabet);
        }
      }
    } else {
      SemipathWitness witness =
          BuildSemipathWitness(alphabet, verdict.counterexample);
      EXPECT_TRUE(
          PathQueryAnswers(witness.db, *r1, witness.start, witness.end));
      EXPECT_FALSE(
          PathQueryAnswers(witness.db, *r2, witness.start, witness.end));
    }
  }
}

TEST(CrossEngineTest, DatalogEmbeddingOfPathQueryIsLinearDatalog) {
  Alphabet alphabet;
  alphabet.InternLabel("a");
  alphabet.InternLabel("b");
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    RegexPtr re = RandomRegex(alphabet, 3, /*allow_inverse=*/true, rng);
    auto program = PathQueryToDatalog(*re, alphabet);
    ASSERT_TRUE(program.ok());
    EXPECT_TRUE(program->IsLinear()) << re->ToString(alphabet);
  }
}

TEST(CrossEngineTest, SocialNetworkQueriesAcrossEngines) {
  GraphDb net = SocialNetwork(60, 6, 40, 2026);
  Database db = GraphToDatabase(net);
  // Friend-of-friend who liked a common post, as UC2RPQ and as raw path
  // query pieces joined relationally.
  auto q = ParseCrpq(
      "q(x, y) :- (knows knows)(x, y), (likes likes-)(x, y)",
      &net.alphabet());
  ASSERT_TRUE(q.ok());
  Relation via_crpq = EvalCrpq(net, *q).value();

  auto fof = ParsePathQuery("knows knows", &net.alphabet());
  auto colike = ParsePathQuery("likes likes-", &net.alphabet());
  ASSERT_TRUE(fof.ok() && colike.ok());
  Relation a(2), b(2);
  for (const auto& [x, y] : EvalPathQuery(net, *fof->regex)) {
    a.Insert({x, y});
  }
  for (const auto& [x, y] : EvalPathQuery(net, *colike->regex)) {
    b.Insert({x, y});
  }
  Relation joined(2);
  for (size_t i = 0; i < a.size(); ++i) {
    if (b.Contains(a.row(i))) joined.Insert(a.row(i));
  }
  EXPECT_EQ(via_crpq.SortedTuples(), joined.SortedTuples());
}

}  // namespace
}  // namespace rq
