#include "pathquery/path_query.h"

#include <algorithm>
#include <numeric>

#include "common/bitset.h"
#include "common/deadline.h"
#include "common/mem.h"
#include "common/parallel.h"
#include "obs/flight_recorder.h"
#include "obs/subsystems.h"
#include "obs/trace.h"

namespace rq {

Result<PathQuery> ParsePathQuery(std::string_view text, Alphabet* alphabet) {
  RQ_ASSIGN_OR_RETURN(RegexPtr regex, ParseRegex(text, alphabet));
  return PathQuery{std::move(regex)};
}

namespace {

// The single evaluation kernel (paper §3.1/§3.3): level-synchronous BFS
// over the product of the graph and the automaton. Visited product states
// live in a bitset keyed node * |Q| + state; the frontier is a dense
// vector swapped per level. `nfa` must be epsilon-free. Thread-safe for
// concurrent calls over one shared snapshot — all mutable state is local,
// and the obs sinks are internally synchronized (flushed once per eval,
// once per level for the frontier histogram).
std::vector<NodeId> ProductBfs(const GraphSnapshot& snapshot, const Nfa& nfa,
                               NodeId start) {
  obs::GraphEvalCounters& counters = obs::GraphEvalCounters::Get();
  counters.evals.Increment();

  const size_t num_states = nfa.num_states();
  const size_t num_nodes = snapshot.num_nodes();
  std::vector<NodeId> out;
  if (num_states == 0 || start >= num_nodes) return out;

  struct ProductState {
    NodeId node;
    uint32_t state;
  };
  // The visited bitset is the product-space allocation (|V| * |Q| bits);
  // frontier growth is charged per level below, as a delta against the
  // previous level, so the live gauge tracks the current frontier only.
  MemScope mem_scope(MemSubsystem::kGraph);
  Bitset visited(num_nodes * num_states);
  Bitset answer(num_nodes);
  MemCharge(static_cast<int64_t>(
      (num_nodes * num_states + num_nodes) / 8 + 2 * sizeof(Bitset)));
  std::vector<ProductState> frontier;
  std::vector<ProductState> next;
  uint64_t states_visited = 0;
  size_t peak_frontier = 0;
  int64_t frontier_charged = 0;

  auto push = [&](NodeId node, uint32_t state) {
    size_t key = static_cast<size_t>(node) * num_states + state;
    if (visited.Test(key)) return;
    visited.Set(key);
    next.push_back({node, state});
  };
  for (uint32_t s : nfa.initial()) push(start, s);
  std::swap(frontier, next);

  // The BFS has no Status channel; when the installed ExecContext trips we
  // abandon the remaining frontier and return the partial answer set — the
  // Status-returning caller polls the same context and discards it.
  bool stopped = false;
  while (!frontier.empty() && !stopped) {
    counters.frontier_per_level.Record(frontier.size());
    peak_frontier = std::max(peak_frontier, frontier.size());
    int64_t level_bytes =
        static_cast<int64_t>(frontier.size() * sizeof(ProductState));
    MemCharge(level_bytes - frontier_charged);
    frontier_charged = level_bytes;
    for (const ProductState& ps : frontier) {
      if (ExecStopRequested()) {
        stopped = true;
        break;
      }
      ++states_visited;
      if (nfa.IsAccepting(ps.state)) answer.Set(ps.node);
      for (const NfaTransition& t : nfa.TransitionsFrom(ps.state)) {
        for (NodeId successor : snapshot.Successors(ps.node, t.symbol)) {
          push(successor, t.to);
        }
      }
    }
    frontier.clear();
    std::swap(frontier, next);
  }

  counters.product_states.Add(states_visited);
  counters.product_states_per_eval.Record(states_visited);
  counters.peak_frontier.Set(static_cast<int64_t>(peak_frontier));

  out.reserve(answer.Count());
  answer.ForEach([&](size_t y) { out.push_back(static_cast<NodeId>(y)); });
  return out;
}

uint32_t SymbolUniverse(size_t num_symbols, const Regex& regex) {
  return std::max(static_cast<uint32_t>(num_symbols),
                  regex.MinNumSymbols());
}

}  // namespace

std::vector<NodeId> EvalPathQueryFrom(const GraphSnapshot& snapshot,
                                      const Nfa& input, NodeId start) {
  const Nfa nfa = input.HasEpsilons() ? input.WithoutEpsilons() : input;
  return ProductBfs(snapshot, nfa, start);
}

std::vector<NodeId> EvalPathQueryFrom(const GraphDb& db, const Nfa& nfa,
                                      NodeId start) {
  return EvalPathQueryFrom(*db.Snapshot(), nfa, start);
}

std::vector<std::vector<NodeId>> EvalPathQueryFromSources(
    const GraphSnapshot& snapshot, const Nfa& input,
    const std::vector<NodeId>& sources, const PathEvalOptions& options) {
  RQ_TRACE_SPAN_VAR(span, "graph.eval_sources");
  span.AddAttr("sources", sources.size());
  obs::FlightTimer timer(obs::QueryKind::kGraphEval);
  const Nfa nfa = input.HasEpsilons() ? input.WithoutEpsilons() : input;
  std::vector<std::vector<NodeId>> answers(sources.size());
  unsigned jobs = options.jobs != 0 ? options.jobs : DefaultParallelJobs();
  // Every BFS observes the caller's context: the pool installs a mirror of
  // it on each worker (common/parallel.h).
  ParallelFor(sources.size(), jobs, [&](size_t i) {
    answers[i] = ProductBfs(snapshot, nfa, sources[i]);
  });
  uint64_t total_answers = 0;
  for (const std::vector<NodeId>& a : answers) total_answers += a.size();
  // Map the parent context's verdict (partial answers are the workers'
  // problem to discard; callers poll CheckExecContext after this returns).
  Status parent_status = CheckExecContext();
  timer.Finish(parent_status.ok()
                   ? obs::kFlightVerdictOk
                   : obs::FlightVerdictFromError(parent_status),
               total_answers);
  return answers;
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQueryNfa(
    const GraphSnapshot& snapshot, const Nfa& input,
    const PathEvalOptions& options) {
  std::vector<NodeId> sources(snapshot.num_nodes());
  std::iota(sources.begin(), sources.end(), NodeId{0});
  std::vector<std::vector<NodeId>> answers =
      EvalPathQueryFromSources(snapshot, input, sources, options);
  // The answer is charged to `graph` once, when its pair array is
  // allocated: per-source lists plus pairs. A trip (this charge or one
  // during the search) leaves the pairs unbuilt; callers poll the context.
  MemScope mem_scope(MemSubsystem::kGraph);
  size_t total = 0;
  for (const std::vector<NodeId>& a : answers) total += a.size();
  MemCharge(static_cast<int64_t>(
      total * (sizeof(NodeId) + sizeof(std::pair<NodeId, NodeId>))));
  std::vector<std::pair<NodeId, NodeId>> out;
  if (ExecStopRequested()) return out;
  out.reserve(total);
  for (size_t x = 0; x < answers.size(); ++x) {
    for (NodeId y : answers[x]) out.emplace_back(static_cast<NodeId>(x), y);
  }
  return out;  // already sorted: outer loop ascending, inner sorted
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQueryNfa(
    const GraphDb& db, const Nfa& nfa, const PathEvalOptions& options) {
  return EvalPathQueryNfa(*db.Snapshot(), nfa, options);
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQuery(
    const GraphSnapshot& snapshot, const Regex& regex,
    const PathEvalOptions& options) {
  Nfa nfa = regex.ToNfa(SymbolUniverse(snapshot.num_symbols(), regex));
  return EvalPathQueryNfa(snapshot, nfa, options);
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQuery(
    const GraphDb& db, const Regex& regex, const PathEvalOptions& options) {
  Nfa nfa =
      regex.ToNfa(SymbolUniverse(db.alphabet().num_symbols(), regex));
  return EvalPathQueryNfa(*db.Snapshot(), nfa, options);
}

bool PathQueryAnswers(const GraphDb& db, const Regex& regex, NodeId x,
                      NodeId y) {
  Nfa nfa =
      regex.ToNfa(SymbolUniverse(db.alphabet().num_symbols(), regex));
  std::vector<NodeId> ys =
      EvalPathQueryFrom(*db.Snapshot(), nfa.WithoutEpsilons(), x);
  return std::binary_search(ys.begin(), ys.end(), y);
}

}  // namespace rq
