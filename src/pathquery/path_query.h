// Regular path queries and two-way regular path queries (paper §3.1).
//
// An RPQ is a regular expression over the edge alphabet; its answer on a
// graph database D is the set of node pairs connected by a directed path
// spelling a word of the language. A 2RPQ may use inverse symbols r- and is
// evaluated over semipaths (paths that may traverse edges backward). Both
// evaluate with the same product-of-graph-and-automaton BFS, because the
// graph's adjacency already resolves inverse symbols to backward steps.
//
// Every evaluator runs one kernel over an immutable GraphSnapshot
// (graph/snapshot.h): a level-synchronous product BFS for 64 sources at
// once, each product state (node, state) holding a uint64_t mask of the
// lane's sources that reached it (docs/EVALUATION.md). Single-source,
// source-list and all-pairs evaluation differ only in how the lanes'
// answers are placed. The CSR arrays are safe to share across threads, so
// lanes fan across the worker pool (common/parallel.h), each worker
// reusing one scratch set: 16 bytes per product state plus 8 per node,
// charged to `graph` before its first lane, so a single-source call pays
// it too and a smaller memory budget trips before any lane runs
// (docs/ROBUSTNESS.md). An allocation that fails inside the kernel
// latches resource exhaustion on the installed context and stops the
// lanes; with no context installed the call rethrows std::bad_alloc on
// the caller's thread. The GraphDb overloads are conveniences that
// take one snapshot internally; callers issuing several queries against
// the same graph should snapshot once and reuse it.
#ifndef RQ_PATHQUERY_PATH_QUERY_H_
#define RQ_PATHQUERY_PATH_QUERY_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "automata/nfa.h"
#include "graph/graph_db.h"
#include "graph/snapshot.h"
#include "regex/regex.h"

namespace rq {

// A parsed path query bound to a database alphabet.
struct PathQuery {
  RegexPtr regex;

  // True if the query uses inverse symbols (2RPQ rather than RPQ).
  bool IsTwoWay() const { return regex->UsesInverse(); }
};

// Knobs for the multi-source evaluators.
struct PathEvalOptions {
  // Worker threads fanning lanes of 64 sources across the pool; 0 means
  // DefaultParallelJobs() (the process-wide --jobs knob). Values <= 1, or
  // a single lane, run serially on the calling thread.
  unsigned jobs = 0;
};

// Parses a path query; labels are interned into db_alphabet.
Result<PathQuery> ParsePathQuery(std::string_view text, Alphabet* alphabet);

// The automaton the kernel runs: `nfa` without its epsilons, trimmed to
// the states that are reachable and can still reach acceptance, so the
// per-worker floor (16 bytes per product state) pays for live states
// only. The regex overload compiles Thompson's NFA over at least
// `num_symbols` symbols first. EvalPathQuery, PathQueryAnswers, the
// witness search and the front door's lowered routes (query/query.h)
// compile through here; the NFA overloads below run the automaton they
// are given.
Nfa KernelNfa(const Nfa& nfa);
Nfa KernelNfa(const Regex& regex, size_t num_symbols);

// All nodes y such that (start, y) is in the answer, sorted.
std::vector<NodeId> EvalPathQueryFrom(const GraphSnapshot& snapshot,
                                      const Nfa& nfa, NodeId start);
std::vector<NodeId> EvalPathQueryFrom(const GraphDb& db, const Nfa& nfa,
                                      NodeId start);

// Batch evaluation: answers[i] holds the sorted nodes reachable from
// sources[i]. Sources may be unsorted, repeated or out of range (those
// answer nothing); each position is its own lane bit. Lanes fan out
// across options.jobs workers over the shared snapshot; results always
// come back in source order regardless of scheduling. When the installed
// context trips, every answer is empty and the caller's next poll reports
// it.
std::vector<std::vector<NodeId>> EvalPathQueryFromSources(
    const GraphSnapshot& snapshot, const Nfa& nfa,
    const std::vector<NodeId>& sources, const PathEvalOptions& options = {});

// The full answer set, sorted by (x, y) and duplicate-free. All-pairs
// semantics = the lane kernel from every node. The answer is charged to
// the installed context's `graph` pot; when the context trips, the result
// is empty and the caller's next poll reports it.
std::vector<std::pair<NodeId, NodeId>> EvalPathQuery(
    const GraphSnapshot& snapshot, const Regex& regex,
    const PathEvalOptions& options = {});
std::vector<std::pair<NodeId, NodeId>> EvalPathQuery(
    const GraphDb& db, const Regex& regex,
    const PathEvalOptions& options = {});
std::vector<std::pair<NodeId, NodeId>> EvalPathQueryNfa(
    const GraphSnapshot& snapshot, const Nfa& nfa,
    const PathEvalOptions& options = {});
std::vector<std::pair<NodeId, NodeId>> EvalPathQueryNfa(
    const GraphDb& db, const Nfa& nfa, const PathEvalOptions& options = {});
// The pairs of the full answer whose first node is in `sources`, which
// must be ascending and duplicate-free; sorted and duplicate-free, with
// the same charging and trip semantics as EvalPathQueryNfa.
std::vector<std::pair<NodeId, NodeId>> EvalPathQueryNfaFrom(
    const GraphSnapshot& snapshot, const Nfa& nfa,
    std::span<const NodeId> sources, const PathEvalOptions& options = {});

// Membership test for one pair.
bool PathQueryAnswers(const GraphDb& db, const Regex& regex, NodeId x,
                      NodeId y);

}  // namespace rq

#endif  // RQ_PATHQUERY_PATH_QUERY_H_
