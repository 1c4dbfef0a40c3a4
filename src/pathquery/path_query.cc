#include "pathquery/path_query.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <new>
#include <numeric>
#include <optional>
#include <span>

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

// Sources per lane: the lane's b-th source is bit b of every mask.
constexpr size_t kLaneWidth = 64;
using LaneCounts = std::array<size_t, kLaneWidth>;

size_t NumLanes(size_t num_sources) {
  return (num_sources + kLaneWidth - 1) / kLaneWidth;
}

struct ProductState {
  NodeId node;
  uint32_t state;
};

// A product state on the level being expanded, with the lane sources
// that reached it first on this level.
struct FrontierEntry {
  NodeId node;
  uint32_t state;
  uint64_t mask;
};

// The lane sources that have reached a product state, and those reaching
// it first on the level being built; side by side, so a step touches one
// cache line.
struct ProductMasks {
  uint64_t seen;
  uint64_t next;
};

// One worker's working set, reused for every lane it runs. The dense
// masks are keyed node * |Q| + state in size_t (|V|·|Q| may pass 2^32);
// `touched` and `answering` record which entries are non-zero, so a lane
// reads back and resets only what it set.
struct LaneScratch {
  LaneScratch(size_t num_nodes, size_t num_states)
      : masks(num_nodes * num_states),
        answer(num_nodes),
        answering(num_nodes) {}

  static size_t DenseBytes(size_t num_nodes, size_t num_states) {
    return num_nodes * num_states * sizeof(ProductMasks) +
           num_nodes * sizeof(uint64_t) + (num_nodes + 63) / 64 * 8;
  }
  // Charges what the lists grew by since the last call; they keep the
  // capacity of the widest level yet, so the charge only grows.
  void ChargeLists() {
    const size_t bytes = touched.capacity() * sizeof(size_t) +
                         next_states.capacity() * sizeof(ProductState) +
                         frontier.capacity() * sizeof(FrontierEntry);
    MemCharge(static_cast<int64_t>(bytes - list_bytes));
    list_bytes = bytes;
  }

  std::vector<ProductMasks> masks;
  std::vector<uint64_t> answer;  // per node: the sources it answers
  Bitset answering;              // nodes with answer != 0
  std::vector<size_t> touched;   // states with seen != 0
  std::vector<ProductState> next_states;  // states with next != 0
  std::vector<FrontierEntry> frontier;
  size_t list_bytes = 0;  // the lists' capacity, as charged
};

// Per-worker tallies, flushed into the graph.* metrics once per worker.
struct LaneStats {
  uint64_t sources = 0;
  uint64_t states = 0;
  uint64_t answers = 0;
  size_t peak_frontier = 0;
};

// The evaluation kernel (paper §3.1/§3.3): a level-synchronous BFS over
// the product of the graph and the automaton for up to kLaneWidth sources
// at once, after Then et al.'s multi-source BFS. A step ORs a frontier
// entry's mask into each product successor, keeping the bits that are new
// there. `nfa` must be epsilon-free; out-of-range sources answer nothing.
// Leaves each node's answering sources in s.answer. Returns false when the
// installed context trips: the BFS has no Status channel, so it abandons
// the lane and a Status-returning caller polls the same context.
bool RunLane(const GraphSnapshot& snapshot, const Nfa& nfa,
             std::span<const NodeId> sources, LaneScratch& s,
             LaneStats& stats) {
  obs::GraphEvalCounters& counters = obs::GraphEvalCounters::Get();
  const size_t num_states = nfa.num_states();
  auto reach = [&](NodeId node, uint32_t state, uint64_t mask) {
    const size_t key = static_cast<size_t>(node) * num_states + state;
    ProductMasks& m = s.masks[key];
    const uint64_t fresh = mask & ~m.seen;
    if (fresh == 0) return;
    if (m.seen == 0) s.touched.push_back(key);
    m.seen |= fresh;
    if (m.next == 0) s.next_states.push_back({node, state});
    m.next |= fresh;
  };
  for (size_t b = 0; b < sources.size(); ++b) {
    if (sources[b] >= snapshot.num_nodes()) continue;
    for (uint32_t q : nfa.initial()) reach(sources[b], q, uint64_t{1} << b);
  }
  stats.sources += sources.size();
  uint64_t states = 0;
  while (!s.next_states.empty()) {
    s.frontier.clear();
    for (const ProductState& ps : s.next_states) {
      uint64_t& mask =
          s.masks[static_cast<size_t>(ps.node) * num_states + ps.state].next;
      s.frontier.push_back({ps.node, ps.state, mask});
      mask = 0;
    }
    s.next_states.clear();
    s.ChargeLists();
    counters.frontier_per_level.Record(s.frontier.size());
    stats.peak_frontier = std::max(stats.peak_frontier, s.frontier.size());
    for (const FrontierEntry& e : s.frontier) {
      if (ExecStopRequested()) {
        stats.states += states;
        return false;
      }
      states += static_cast<uint64_t>(std::popcount(e.mask));
      if (nfa.IsAccepting(e.state)) {
        s.answering.Set(e.node);
        s.answer[e.node] |= e.mask;
      }
      for (const NfaTransition& t : nfa.TransitionsFrom(e.state)) {
        for (NodeId successor : snapshot.Successors(e.node, t.symbol)) {
          reach(successor, t.to, e.mask);
        }
      }
    }
  }
  stats.states += states;
  counters.product_states_per_eval.Record(states);
  return true;
}

// Counts each source bit's answers: the count half of count-then-place.
// Both halves read the answer masks in node order off `answering`, so a
// source's answers are placed ascending.
LaneCounts CountAnswers(const LaneScratch& s) {
  LaneCounts counts{};
  s.answering.ForEach([&](size_t y) {
    for (uint64_t m = s.answer[y]; m != 0; m &= m - 1) {
      ++counts[static_cast<size_t>(std::countr_zero(m))];
    }
  });
  return counts;
}

// Zeroes what a finished lane set (its `next` masks are zero already).
void ResetLane(LaneScratch& s) {
  for (size_t key : s.touched) s.masks[key].seen = 0;
  s.touched.clear();
  s.answering.ForEach([&](size_t y) { s.answer[y] = 0; });
  s.answering.Clear();
}

// Workers for `num_sources` sources: a lane is the unit of work.
unsigned LaneWorkers(size_t num_sources, const PathEvalOptions& options) {
  const unsigned jobs =
      options.jobs != 0 ? options.jobs : DefaultParallelJobs();
  return static_cast<unsigned>(
      std::clamp<size_t>(NumLanes(num_sources), 1, std::max(jobs, 1u)));
}

// Evaluates `input` from every position of `sources` (unsorted,
// duplicated and out-of-range entries allowed; each position is its own
// lane bit). Lanes are handed out by a ticket to `workers` workers, one
// ParallelFor item each, so a worker keeps one scratch set, one
// memory scope and one set of tallies across its lanes. Each finished
// lane goes to place(lane, lane_sources, scratch, counts) on the worker
// that ran it, inside that worker's `graph` scope: place charges what it
// allocates. A std::bad_alloc from a worker's scratch, its level lists or
// place latches resource exhaustion on the context the workers share
// (ExecContext::ExhaustMemory), which stops every lane; a caller without
// a context gets one for the call and the failure rethrown on its own
// thread. One graph.eval_sources span and one kGraphEval flight entry per
// call.
template <typename Place>
void EvalLanes(const GraphSnapshot& snapshot, const Nfa& input,
               std::span<const NodeId> sources, unsigned workers,
               Place&& place) {
  RQ_TRACE_SPAN_VAR(span, "graph.eval_sources");
  span.AddAttr("sources", sources.size());
  obs::FlightTimer timer(obs::QueryKind::kGraphEval);
  std::optional<ExecContext> own_context;
  std::optional<ScopedExecContext> install;
  if (ExecContext::Current() == nullptr) {
    install.emplace(&own_context.emplace());
  }
  std::optional<Nfa> stripped;
  const Nfa& nfa =
      input.HasEpsilons() ? stripped.emplace(input.WithoutEpsilons()) : input;
  const size_t num_nodes = snapshot.num_nodes();
  const size_t num_states = nfa.num_states();
  const size_t num_lanes = NumLanes(sources.size());
  std::atomic<size_t> next_lane{0};
  std::atomic<uint64_t> total_answers{0};
  // Every worker observes the caller's context: the pool installs a
  // mirror of it on each worker (common/parallel.h).
  ParallelFor(workers, workers, [&](size_t) {
    MemScope mem_scope(MemSubsystem::kGraph);
    std::optional<LaneScratch> scratch;
    LaneStats stats;
    try {
      for (size_t lane = next_lane.fetch_add(1, std::memory_order_relaxed);
           lane < num_lanes;
           lane = next_lane.fetch_add(1, std::memory_order_relaxed)) {
        if (!scratch) {
          MemCharge(static_cast<int64_t>(
              LaneScratch::DenseBytes(num_nodes, num_states)));
          if (ExecStopRequested()) break;
          scratch.emplace(num_nodes, num_states);
        }
        const size_t begin = lane * kLaneWidth;
        const std::span<const NodeId> lane_sources = sources.subspan(
            begin, std::min(kLaneWidth, sources.size() - begin));
        if (!RunLane(snapshot, nfa, lane_sources, *scratch, stats)) break;
        const LaneCounts counts = CountAnswers(*scratch);
        place(lane, lane_sources, *scratch, counts);
        for (size_t c : counts) stats.answers += c;
        ResetLane(*scratch);
        if (ExecStopRequested()) break;
      }
    } catch (const std::bad_alloc&) {
      ExecContext::Current()->ExhaustMemory();
    }
    obs::GraphEvalCounters& counters = obs::GraphEvalCounters::Get();
    counters.evals.Add(stats.sources);
    counters.product_states.Add(stats.states);
    if (stats.peak_frontier > 0) {
      counters.peak_frontier.Set(static_cast<int64_t>(stats.peak_frontier));
    }
    total_answers.fetch_add(stats.answers, std::memory_order_relaxed);
  });
  // Map the parent context's verdict (workers stop on a trip; callers
  // discard what they placed and poll CheckExecContext after this).
  Status parent_status = CheckExecContext();
  timer.Finish(parent_status.ok()
                   ? obs::kFlightVerdictOk
                   : obs::FlightVerdictFromError(parent_status),
               total_answers.load(std::memory_order_relaxed));
  if (own_context && own_context->exceeded()) throw std::bad_alloc();
}

}  // namespace

Nfa KernelNfa(const Nfa& nfa) { return nfa.WithoutEpsilons().Trimmed(); }

Nfa KernelNfa(const Regex& regex, size_t num_symbols) {
  return KernelNfa(regex.ToNfa(
      std::max(static_cast<uint32_t>(num_symbols), regex.MinNumSymbols())));
}

std::vector<NodeId> EvalPathQueryFrom(const GraphSnapshot& snapshot,
                                      const Nfa& nfa, NodeId start) {
  std::vector<std::vector<NodeId>> answers = EvalPathQueryFromSources(
      snapshot, nfa, {start}, PathEvalOptions{.jobs = 1});
  return std::move(answers.front());
}

std::vector<NodeId> EvalPathQueryFrom(const GraphDb& db, const Nfa& nfa,
                                      NodeId start) {
  return EvalPathQueryFrom(*db.Snapshot(), nfa, start);
}

std::vector<std::vector<NodeId>> EvalPathQueryFromSources(
    const GraphSnapshot& snapshot, const Nfa& nfa,
    const std::vector<NodeId>& sources, const PathEvalOptions& options) {
  std::vector<std::vector<NodeId>> answers(sources.size());
  EvalLanes(snapshot, nfa, sources, LaneWorkers(sources.size(), options),
            [&](size_t lane, std::span<const NodeId> lane_sources,
                const LaneScratch& s, const LaneCounts& counts) {
              std::vector<NodeId>* slot = answers.data() + lane * kLaneWidth;
              size_t total = 0;
              for (size_t b = 0; b < lane_sources.size(); ++b) {
                slot[b].reserve(counts[b]);
                total += counts[b];
              }
              MemCharge(static_cast<int64_t>(total * sizeof(NodeId)));
              s.answering.ForEach([&](size_t y) {
                for (uint64_t m = s.answer[y]; m != 0; m &= m - 1) {
                  slot[std::countr_zero(m)].push_back(static_cast<NodeId>(y));
                }
              });
            });
  // A trip leaves no answers.
  if (ExecStopRequested()) answers.assign(sources.size(), {});
  return answers;
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQueryNfa(
    const GraphSnapshot& snapshot, const Nfa& nfa,
    const PathEvalOptions& options) {
  std::vector<NodeId> sources(snapshot.num_nodes());
  std::iota(sources.begin(), sources.end(), NodeId{0});
  return EvalPathQueryNfaFrom(snapshot, nfa, sources, options);
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQueryNfaFrom(
    const GraphSnapshot& snapshot, const Nfa& nfa,
    std::span<const NodeId> sources, const PathEvalOptions& options) {
  using Pairs = std::vector<std::pair<NodeId, NodeId>>;
  const unsigned workers = LaneWorkers(sources.size(), options);
  // Lane l holds positions [64l, 64l + 64) of the ascending sources and
  // places its pairs source-major with nodes ascending, so pairs leave
  // sorted and duplicate-free. One worker runs the lanes in order and
  // appends them to `out`; several fill per-lane blocks joined in lane
  // order.
  Pairs out;
  std::vector<Pairs> blocks(workers > 1 ? NumLanes(sources.size()) : 0);
  EvalLanes(snapshot, nfa, sources, workers,
            [&](size_t lane, std::span<const NodeId> lane_sources,
                const LaneScratch& s, const LaneCounts& counts) {
              Pairs& sink = blocks.empty() ? out : blocks[lane];
              LaneCounts at{};
              size_t end = sink.size();
              for (size_t b = 0; b < lane_sources.size(); ++b) {
                at[b] = end;
                end += counts[b];
              }
              MemCharge(static_cast<int64_t>((end - sink.size()) *
                                             sizeof(Pairs::value_type)));
              sink.resize(end);
              s.answering.ForEach([&](size_t y) {
                for (uint64_t m = s.answer[y]; m != 0; m &= m - 1) {
                  const size_t b = static_cast<size_t>(std::countr_zero(m));
                  sink[at[b]++] = {lane_sources[b], static_cast<NodeId>(y)};
                }
              });
            });
  // The answer is charged to `graph` once more as the caller receives it
  // (the workers' scopes released theirs), twice while the join copies the
  // blocks. A trip, during the search or on this charge, leaves no pairs;
  // callers poll the context.
  MemScope mem_scope(MemSubsystem::kGraph);
  size_t total = out.size();
  for (const Pairs& block : blocks) total += block.size();
  MemCharge(static_cast<int64_t>((blocks.empty() ? 1 : 2) * total *
                                 sizeof(Pairs::value_type)));
  if (ExecStopRequested()) return {};
  if (!blocks.empty()) {
    out.reserve(total);
    for (const Pairs& block : blocks) {
      out.insert(out.end(), block.begin(), block.end());
    }
  }
  return out;
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQueryNfa(
    const GraphDb& db, const Nfa& nfa, const PathEvalOptions& options) {
  return EvalPathQueryNfa(*db.Snapshot(), nfa, options);
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQuery(
    const GraphSnapshot& snapshot, const Regex& regex,
    const PathEvalOptions& options) {
  return EvalPathQueryNfa(snapshot, KernelNfa(regex, snapshot.num_symbols()),
                          options);
}

std::vector<std::pair<NodeId, NodeId>> EvalPathQuery(
    const GraphDb& db, const Regex& regex, const PathEvalOptions& options) {
  return EvalPathQueryNfa(*db.Snapshot(),
                          KernelNfa(regex, db.alphabet().num_symbols()),
                          options);
}

bool PathQueryAnswers(const GraphDb& db, const Regex& regex, NodeId x,
                      NodeId y) {
  std::vector<NodeId> ys = EvalPathQueryFrom(
      *db.Snapshot(), KernelNfa(regex, db.alphabet().num_symbols()), x);
  return std::binary_search(ys.begin(), ys.end(), y);
}

}  // namespace rq
