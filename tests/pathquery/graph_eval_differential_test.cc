// Differential tests for the path-query kernel (ctest label
// `sanitize-pathquery`): on seeded random graphs and random 2RPQs, the
// lane kernel over the CSR snapshot must return exactly the answer set of
// an independent per-source reference BFS written against GraphDb's plain
// O(edges) edge scan (the seed semantics), also at node counts on both
// sides of the 64-source lane boundaries. The parallel multi-source path
// must match the serial one, source lists may be unsorted, repeated or out
// of range, the graph.* counters must equal the reference's per-source
// sums (over the trimmed automaton a regex compiles to), and every
// answered pair must carry a witness semipath whose steps are real graph
// steps spelling a word of the query language.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "automata/nfa.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "obs/counters.h"
#include "pathquery/path_query.h"
#include "pathquery/witness.h"
#include "regex/regex.h"

namespace rq {
namespace {

// One source's answer and the number of product states its BFS visited.
struct ReferenceRun {
  std::vector<NodeId> answers;
  uint64_t states = 0;
};

// Reference product BFS from one source over GraphDb::Successors — the
// stateless O(edges) scan, structurally independent of the CSR arrays and
// the lane kernel under test. `nfa` must be epsilon-free; an out-of-range
// source answers nothing.
ReferenceRun ReferenceFrom(const GraphDb& db, const Nfa& nfa, NodeId src) {
  ReferenceRun run;
  if (src >= db.num_nodes()) return run;
  const size_t num_states = nfa.num_states();
  std::vector<bool> visited(db.num_nodes() * num_states, false);
  std::vector<bool> answer(db.num_nodes(), false);
  std::vector<std::pair<NodeId, uint32_t>> queue;
  auto push = [&](NodeId node, uint32_t state) {
    size_t key = static_cast<size_t>(node) * num_states + state;
    if (visited[key]) return;
    visited[key] = true;
    queue.emplace_back(node, state);
  };
  for (uint32_t s : nfa.initial()) push(src, s);
  for (size_t i = 0; i < queue.size(); ++i) {
    auto [node, state] = queue[i];
    if (nfa.IsAccepting(state)) answer[node] = true;
    for (const NfaTransition& t : nfa.TransitionsFrom(state)) {
      for (NodeId next : db.Successors(node, t.symbol)) push(next, t.to);
    }
  }
  run.states = queue.size();
  for (NodeId y = 0; y < db.num_nodes(); ++y) {
    if (answer[y]) run.answers.push_back(y);
  }
  return run;
}

std::vector<std::pair<NodeId, NodeId>> ReferenceEval(const GraphDb& db,
                                                     const Nfa& nfa) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId src = 0; src < db.num_nodes(); ++src) {
    for (NodeId y : ReferenceFrom(db, nfa, src).answers) {
      out.emplace_back(src, y);
    }
  }
  return out;
}

Nfa EpsilonFreeNfa(const GraphDb& db, const Regex& regex) {
  const uint32_t k =
      std::max(static_cast<uint32_t>(db.alphabet().num_symbols()),
               regex.MinNumSymbols());
  return regex.ToNfa(k).WithoutEpsilons();
}

RegexPtr Parse(const std::string& text, Alphabet* alphabet) {
  auto parsed = ParseRegex(text, alphabet);
  RQ_CHECK(parsed.ok());
  return *parsed;
}

// Node counts on both sides of the 64-source lane boundaries.
constexpr size_t kLaneSizes[] = {1, 63, 64, 65, 128, 129, 200};

TEST(GraphEvalDifferentialTest, SnapshotEvalMatchesReferenceEdgeScan) {
  const std::vector<std::string> labels{"a", "b", "c"};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919);
    const size_t num_nodes = 4 + rng.Below(28);
    const size_t num_edges = num_nodes + rng.Below(3 * num_nodes);
    GraphDb db = RandomGraph(num_nodes, num_edges, labels, seed);
    RegexPtr regex =
        RandomRegex(db.alphabet(), 3, /*allow_inverse=*/true, rng);
    const auto expected = ReferenceEval(db, EpsilonFreeNfa(db, *regex));
    const auto actual = EvalPathQuery(*db.Snapshot(), *regex);
    EXPECT_EQ(actual, expected)
        << "seed " << seed << " query " << regex->ToString(db.alphabet());
  }
  // Lane boundaries: random 2RPQs, and epsilon-accepting regexes, under
  // which every node answers itself.
  for (size_t n : kLaneSizes) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      GraphDb db = RandomGraph(n, 2 * n + 2, {"a", "b"}, seed * 131 + n);
      Rng rng(seed * 7727 + n);
      std::vector<RegexPtr> regexes;
      for (int i = 0; i < 2; ++i) {
        regexes.push_back(
            RandomRegex(db.alphabet(), 3, /*allow_inverse=*/true, rng));
      }
      regexes.push_back(Parse("(a | b-)*", &db.alphabet()));
      regexes.push_back(Parse("a- b? | ()", &db.alphabet()));
      const GraphSnapshotPtr snapshot = db.Snapshot();
      for (const RegexPtr& regex : regexes) {
        EXPECT_EQ(EvalPathQuery(*snapshot, *regex),
                  ReferenceEval(db, EpsilonFreeNfa(db, *regex)))
            << n << " nodes, seed " << seed << ", query "
            << regex->ToString(db.alphabet());
      }
      const auto star = EvalPathQuery(*snapshot, *regexes[2]);
      for (NodeId x = 0; x < n; ++x) {
        EXPECT_TRUE(std::binary_search(star.begin(), star.end(),
                                       std::make_pair(x, x)))
            << "(" << x << ", " << x << ") missing at " << n << " nodes";
      }
    }
  }
}

// Three to six lanes, so jobs = 4 really runs lanes on several workers.
TEST(GraphEvalDifferentialTest, ParallelJobsMatchSerialJobs) {
  const std::vector<std::string> labels{"a", "b"};
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 104729);
    const size_t num_nodes = 129 + rng.Below(256);
    const size_t num_edges = 2 * num_nodes + rng.Below(4 * num_nodes);
    GraphDb db = RandomGraph(num_nodes, num_edges, labels, seed);
    RegexPtr regex =
        RandomRegex(db.alphabet(), 3, /*allow_inverse=*/true, rng);
    const auto serial =
        EvalPathQuery(*db.Snapshot(), *regex, PathEvalOptions{.jobs = 1});
    const auto parallel =
        EvalPathQuery(*db.Snapshot(), *regex, PathEvalOptions{.jobs = 4});
    EXPECT_EQ(parallel, serial)
        << "seed " << seed << " query " << regex->ToString(db.alphabet());
  }
}

TEST(GraphEvalDifferentialTest, SymbolInternedAfterTheSnapshotHasNoEdges) {
  GraphDb db = RandomGraph(70, 200, {"a", "b"}, 17);
  const GraphSnapshotPtr snapshot = db.Snapshot();
  const size_t indexed = snapshot->num_symbols();
  RegexPtr regex = Parse("a z* | z a-", &db.alphabet());
  ASSERT_GT(db.alphabet().num_symbols(), indexed);
  EXPECT_EQ(EvalPathQuery(*snapshot, *regex),
            ReferenceEval(db, EpsilonFreeNfa(db, *regex)));
  EXPECT_TRUE(EvalPathQuery(*snapshot, *Parse("z", &db.alphabet())).empty());
  // `z*` answers only the empty word: the diagonal, across two lanes.
  const auto diagonal = EvalPathQuery(*snapshot, *Parse("z*", &db.alphabet()));
  ASSERT_EQ(diagonal.size(), 70u);
  for (NodeId x = 0; x < 70; ++x) EXPECT_EQ(diagonal[x], std::make_pair(x, x));
}

TEST(GraphEvalDifferentialTest,
     FromSourcesTakesUnsortedDuplicatedOutOfRangeSources) {
  GraphDb db = RandomGraph(100, 300, {"a", "b"}, 23);
  Rng rng(4242);
  RegexPtr regex = RandomRegex(db.alphabet(), 3, /*allow_inverse=*/true, rng);
  const Nfa nfa = EpsilonFreeNfa(db, *regex);
  // Three lanes: descending ids, repeats of one node (within a lane and
  // across lanes), and ids past the last node.
  std::vector<NodeId> sources;
  for (NodeId x = 99; x >= 40; --x) sources.push_back(x);
  for (int i = 0; i < 8; ++i) sources.push_back(7);
  for (NodeId x = 100; x < 110; ++x) sources.push_back(x);
  sources.push_back(std::numeric_limits<NodeId>::max());
  for (size_t i = 0; i < 70; ++i) {
    sources.push_back(static_cast<NodeId>(rng.Below(105)));
  }
  sources.push_back(7);
  const GraphSnapshotPtr snapshot = db.Snapshot();
  for (unsigned jobs : {1u, 4u}) {
    const auto answers = EvalPathQueryFromSources(
        *snapshot, nfa, sources, PathEvalOptions{.jobs = jobs});
    ASSERT_EQ(answers.size(), sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(answers[i], ReferenceFrom(db, nfa, sources[i]).answers)
          << "position " << i << ", source " << sources[i] << ", jobs "
          << jobs;
    }
  }
}

TEST(GraphEvalDifferentialTest, CountersCountSourcesAndProductStateVisits) {
  GraphDb db = RandomGraph(129, 400, {"a", "b"}, 31);
  RegexPtr regex = Parse("(a | b-)* a", &db.alphabet());
  const Nfa nfa = EpsilonFreeNfa(db, *regex);
  const GraphSnapshotPtr snapshot = db.Snapshot();
  uint64_t states = 0;
  for (NodeId x = 0; x < 129; ++x) states += ReferenceFrom(db, nfa, x).states;
  for (unsigned jobs : {1u, 4u}) {
    obs::CounterDelta delta;
    EvalPathQueryNfa(*snapshot, nfa, PathEvalOptions{.jobs = jobs});
    EXPECT_EQ(delta.Delta("graph.evals"), 129u) << "jobs " << jobs;
    EXPECT_EQ(delta.Delta("graph.product_states"), states) << "jobs " << jobs;
  }
  // Every list position counts as a source, even one out of range.
  const std::vector<NodeId> sources{5, 5, 200, 64};
  obs::CounterDelta delta;
  EvalPathQueryFromSources(*snapshot, nfa, sources);
  EXPECT_EQ(delta.Delta("graph.evals"), sources.size());
  EXPECT_EQ(delta.Delta("graph.product_states"),
            2 * ReferenceFrom(db, nfa, 5).states +
                ReferenceFrom(db, nfa, 64).states);
}

// A regex runs as its trimmed automaton (KernelNfa), which has fewer
// states than Thompson's ε-free NFA (those entered only by ε moves are
// dead), so the lane masks are fewer: the answers are the untrimmed
// automaton's, and graph.product_states is the reference BFS's count over
// the trimmed one, never above the count over the untrimmed one.
TEST(GraphEvalDifferentialTest, RegexEvalRunsTheTrimmedAutomaton) {
  GraphDb db = RandomGraph(129, 400, {"a", "b"}, 37);
  const GraphSnapshotPtr snapshot = db.Snapshot();
  for (const char* text : {"(a | b-)* a", "a b- a", "(a b | b)+ a?"}) {
    RegexPtr regex = Parse(text, &db.alphabet());
    const Nfa untrimmed = EpsilonFreeNfa(db, *regex);
    const Nfa trimmed = KernelNfa(*regex, db.alphabet().num_symbols());
    EXPECT_LT(trimmed.num_states(), untrimmed.num_states()) << text;
    uint64_t states = 0;
    uint64_t untrimmed_states = 0;
    for (NodeId x = 0; x < 129; ++x) {
      states += ReferenceFrom(db, trimmed, x).states;
      untrimmed_states += ReferenceFrom(db, untrimmed, x).states;
    }
    EXPECT_LE(states, untrimmed_states) << text;
    for (unsigned jobs : {1u, 4u}) {
      obs::CounterDelta delta;
      EXPECT_EQ(
          EvalPathQuery(*snapshot, *regex, PathEvalOptions{.jobs = jobs}),
          ReferenceEval(db, untrimmed))
          << text << ", jobs " << jobs;
      EXPECT_EQ(delta.Delta("graph.product_states"), states)
          << text << ", jobs " << jobs;
    }
  }
}

TEST(GraphEvalDifferentialTest, AnswersCarryValidWitnessSemipaths) {
  const std::vector<std::string> labels{"a", "b"};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 31337);
    GraphDb db = RandomGraph(4 + rng.Below(12), 10 + rng.Below(30), labels,
                             seed);
    RegexPtr regex =
        RandomRegex(db.alphabet(), 3, /*allow_inverse=*/true, rng);
    const Nfa nfa = EpsilonFreeNfa(db, *regex);
    const auto answers = EvalPathQuery(*db.Snapshot(), *regex);

    for (const auto& [x, y] : answers) {
      auto witness = FindWitnessSemipath(db, *regex, x, y);
      ASSERT_TRUE(witness.has_value())
          << "no witness for answered pair (" << x << ", " << y << "), seed "
          << seed;
      // Endpoints chain up from x to y, every step is a real graph step,
      // and the spelled word is in the query language.
      NodeId at = x;
      std::vector<Symbol> word;
      for (const SemipathStep& step : *witness) {
        EXPECT_EQ(step.from, at);
        const std::vector<NodeId> succ = db.Successors(step.from, step.symbol);
        EXPECT_TRUE(std::binary_search(succ.begin(), succ.end(), step.to))
            << "step is not a graph step, seed " << seed;
        word.push_back(step.symbol);
        at = step.to;
      }
      EXPECT_EQ(at, y);
      EXPECT_TRUE(nfa.Accepts(word))
          << "witness word not in language, seed " << seed;
    }
  }
}

// Pairs NOT in the answer must have no witness (spot-checked on the
// complement to keep runtime bounded).
TEST(GraphEvalDifferentialTest, NonAnswersHaveNoWitness) {
  const std::vector<std::string> labels{"a", "b"};
  Rng rng(424243);
  GraphDb db = RandomGraph(10, 25, labels, /*seed=*/5);
  RegexPtr regex = RandomRegex(db.alphabet(), 3, /*allow_inverse=*/true, rng);
  const auto answers = EvalPathQuery(*db.Snapshot(), *regex);
  for (NodeId x = 0; x < db.num_nodes(); ++x) {
    for (NodeId y = 0; y < db.num_nodes(); ++y) {
      const bool answered = std::binary_search(
          answers.begin(), answers.end(), std::make_pair(x, y));
      EXPECT_EQ(FindWitnessSemipath(db, *regex, x, y).has_value(), answered)
          << "(" << x << ", " << y << ")";
    }
  }
}

}  // namespace
}  // namespace rq
