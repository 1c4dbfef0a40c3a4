#include "server/handlers.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "common/deadline.h"
#include "common/status.h"
#include "containment/batch.h"
#include "containment/containment.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/subsystems.h"
#include "pathquery/containment.h"
#include "pathquery/path_query.h"
#include "relational/cq.h"
#include "rq/equivalence.h"
#include "rq/eval.h"
#include "rq/parser.h"

namespace rq {
namespace server {

namespace {

obs::JsonValue StatusError(const obs::JsonValue& id, const Status& status) {
  return ErrorResponse(id, ErrorCodeForStatus(status), status.message());
}

// Renders one path-containment verdict (shared by the containment handler
// and each direction of an rpq/2rpq equivalence check).
obs::JsonValue RenderPathVerdict(const PathContainmentResult& result,
                                 const Alphabet& alphabet) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("contained", obs::JsonValue::Bool(result.contained));
  out.Set("pipeline", obs::JsonValue::String(
                          result.used_fold_pipeline ? "2rpq-fold" : "lemma1"));
  if (!result.contained) {
    out.Set("counterexample_word",
            obs::JsonValue::String(
                WordToString(alphabet, result.counterexample)));
  }
  return out;
}

// Renders an eval answer: its first max_tuples rows (default
// kDefaultMaxTuples) as arrays of node names, its size, and whether the
// cap cut it. Every eval response goes through here.
void RenderRows(const GraphDb& graph, const SortedRows& answer,
                int64_t max_tuples, obs::JsonValue* response) {
  if (max_tuples <= 0) max_tuples = kDefaultMaxTuples;
  size_t shown = std::min(answer.size(), static_cast<size_t>(max_tuples));
  obs::JsonValue tuples = obs::JsonValue::Array();
  for (size_t i = 0; i < shown; ++i) {
    obs::JsonValue row = obs::JsonValue::Array();
    const Value* values = answer.row(i);
    for (size_t c = 0; c < answer.arity; ++c) {
      row.Append(obs::JsonValue::String(
          graph.NodeName(static_cast<NodeId>(values[c]))));
    }
    tuples.Append(std::move(row));
  }
  response->Set("tuples", std::move(tuples));
  response->Set("count",
                obs::JsonValue::Number(static_cast<uint64_t>(answer.size())));
  response->Set("truncated", obs::JsonValue::Bool(shown < answer.size()));
}

obs::JsonValue HandleContainment(const Request& request,
                                 const HandlerContext& ctx) {
  (void)ctx;
  const std::string& cls = request.cls;
  if (cls == "rpq" || cls == "2rpq") {
    Alphabet alphabet;
    auto r1 = ParseRegex(request.q1, &alphabet);
    if (!r1.ok()) return StatusError(request.id, r1.status());
    auto r2 = ParseRegex(request.q2, &alphabet);
    if (!r2.ok()) return StatusError(request.id, r2.status());
    // Route through the batch engine (one-job batch): the job's context
    // clips its deadline to, and chains its pot to, the per-request context
    // the server installed, and the shared automata cache deduplicates
    // sub-constructions across concurrent requests.
    std::vector<PathContainmentJob> jobs = {{r1->get(), r2->get()}};
    std::vector<PathContainmentResult> results =
        CheckPathContainmentBatch(jobs, alphabet);
    const PathContainmentResult& result = results[0];
    if (!result.status.ok()) return StatusError(request.id, result.status);
    obs::JsonValue response = OkResponse(request.id);
    response.Set("verdict", obs::JsonValue::String(
                                result.contained ? "proved" : "refuted"));
    obs::JsonValue verdict = RenderPathVerdict(result, alphabet);
    for (auto& [key, value] : verdict.members()) {
      response.Set(key, std::move(value));
    }
    return response;
  }
  if (cls == "cq" || cls == "ucq") {
    auto q1 = ParseUcq(request.q1);
    if (!q1.ok()) return StatusError(request.id, q1.status());
    auto q2 = ParseUcq(request.q2);
    if (!q2.ok()) return StatusError(request.id, q2.status());
    auto contained = UcqContained(*q1, *q2);
    if (!contained.ok()) return StatusError(request.id, contained.status());
    obs::JsonValue response = OkResponse(request.id);
    response.Set("verdict", obs::JsonValue::String(*contained ? "proved"
                                                              : "refuted"));
    response.Set("method",
                 obs::JsonValue::String(
                     q1->disjuncts.size() == 1 && q2->disjuncts.size() == 1
                         ? "chandra-merlin"
                         : "sagiv-yannakakis"));
    return response;
  }
  if (cls == "uc2rpq") {
    Alphabet alphabet;
    auto q1 = ParseUc2Rpq(request.q1, &alphabet);
    if (!q1.ok()) return StatusError(request.id, q1.status());
    auto q2 = ParseUc2Rpq(request.q2, &alphabet);
    if (!q2.ok()) return StatusError(request.id, q2.status());
    auto result = CheckUc2RpqContainment(*q1, *q2, alphabet);
    if (!result.ok()) return StatusError(request.id, result.status());
    obs::JsonValue response = OkResponse(request.id);
    response.Set("verdict",
                 obs::JsonValue::String(CertaintyName(result->certainty)));
    response.Set("method", obs::JsonValue::String(result->method));
    response.Set("truncated", obs::JsonValue::Bool(result->truncated));
    if (result->counterexample.has_value()) {
      response.Set("counterexample_graph",
                   obs::JsonValue::String(result->counterexample->ToText()));
    }
    return response;
  }
  if (cls == "rq") {
    auto q1 = ParseRq(request.q1);
    if (!q1.ok()) return StatusError(request.id, q1.status());
    auto q2 = ParseRq(request.q2);
    if (!q2.ok()) return StatusError(request.id, q2.status());
    auto result = CheckRqContainment(*q1, *q2);
    if (!result.ok()) return StatusError(request.id, result.status());
    obs::JsonValue response = OkResponse(request.id);
    response.Set("verdict",
                 obs::JsonValue::String(CertaintyName(result->certainty)));
    response.Set("method", obs::JsonValue::String(result->method));
    if (result->counterexample.has_value()) {
      response.Set("counterexample_database",
                   obs::JsonValue::String(result->counterexample->ToString()));
    }
    return response;
  }
  if (cls == "datalog") {
    auto q1 = ParseDatalog(request.q1);
    if (!q1.ok()) return StatusError(request.id, q1.status());
    auto q2 = ParseDatalog(request.q2);
    if (!q2.ok()) return StatusError(request.id, q2.status());
    auto result = CheckDatalogContainment(*q1, *q2);
    if (!result.ok()) return StatusError(request.id, result.status());
    obs::JsonValue response = OkResponse(request.id);
    response.Set("verdict",
                 obs::JsonValue::String(CertaintyName(result->certainty)));
    response.Set("method", obs::JsonValue::String(result->method));
    if (result->counterexample.has_value()) {
      response.Set("counterexample_database",
                   obs::JsonValue::String(result->counterexample->ToString()));
    }
    return response;
  }
  return ErrorResponse(request.id, "invalid_request",
                       "unknown containment class '" + cls +
                           "' (rpq|2rpq|cq|ucq|uc2rpq|rq|datalog)");
}

obs::JsonValue HandleEquivalence(const Request& request,
                                 const HandlerContext& ctx) {
  (void)ctx;
  const std::string& cls = request.cls;
  if (cls == "rpq" || cls == "2rpq") {
    Alphabet alphabet;
    auto r1 = ParseRegex(request.q1, &alphabet);
    if (!r1.ok()) return StatusError(request.id, r1.status());
    auto r2 = ParseRegex(request.q2, &alphabet);
    if (!r2.ok()) return StatusError(request.id, r2.status());
    // Both directions as one two-job batch: the pool runs them
    // concurrently when worker slots are free.
    std::vector<PathContainmentJob> jobs = {{r1->get(), r2->get()},
                                            {r2->get(), r1->get()}};
    std::vector<PathContainmentResult> results =
        CheckPathContainmentBatch(jobs, alphabet);
    for (const PathContainmentResult& result : results) {
      if (!result.status.ok()) return StatusError(request.id, result.status);
    }
    obs::JsonValue response = OkResponse(request.id);
    bool equivalent = results[0].contained && results[1].contained;
    response.Set("verdict", obs::JsonValue::String(
                                equivalent ? "equivalent" : "not-equivalent"));
    response.Set("forward", RenderPathVerdict(results[0], alphabet));
    response.Set("backward", RenderPathVerdict(results[1], alphabet));
    return response;
  }
  if (cls == "rq") {
    auto q1 = ParseRq(request.q1);
    if (!q1.ok()) return StatusError(request.id, q1.status());
    auto q2 = ParseRq(request.q2);
    if (!q2.ok()) return StatusError(request.id, q2.status());
    auto result = CheckRqEquivalence(*q1, *q2);
    if (!result.ok()) return StatusError(request.id, result.status());
    obs::JsonValue response = OkResponse(request.id);
    response.Set("verdict", obs::JsonValue::String(
                                EquivalenceVerdictName(result->verdict)));
    auto direction = [](const auto& half) {
      obs::JsonValue out = obs::JsonValue::Object();
      out.Set("verdict", obs::JsonValue::String(CertaintyName(half.certainty)));
      out.Set("method", obs::JsonValue::String(half.method));
      if (half.counterexample.has_value()) {
        out.Set("counterexample_database",
                obs::JsonValue::String(half.counterexample->ToString()));
      }
      return out;
    };
    response.Set("forward", direction(result->forward));
    response.Set("backward", direction(result->backward));
    return response;
  }
  return ErrorResponse(request.id,
                       cls.empty() ? "invalid_request" : "unimplemented",
                       "equivalence supports classes rpq|2rpq|rq, got '" +
                           cls + "'");
}

// The label whose transitive closure answers this query, when the regex is
// closure-shaped: exactly `a+` over one forward symbol. (`a*` is NOT
// closure-shaped — it additionally answers every identity pair.)
std::optional<uint32_t> ClosureShapeLabel(const Regex& regex) {
  if (regex.kind() != RegexKind::kPlus || regex.children().size() != 1) {
    return std::nullopt;
  }
  const Regex& atom = *regex.children()[0];
  if (atom.kind() != RegexKind::kAtom || IsInverseSymbol(atom.symbol())) {
    return std::nullopt;
  }
  return SymbolLabel(atom.symbol());
}

obs::JsonValue HandleEval(const Request& request, const HandlerContext& ctx) {
  // Inline graphs are parsed per request; otherwise the request evaluates
  // against its pinned GraphView — one immutable graph version for the
  // request's whole lifetime, shared read-only across workers (alphabet
  // copied before parsing so query-symbol interning never mutates shared
  // state).
  std::optional<GraphDb> local_graph;
  const GraphDb* graph = nullptr;
  bool store_backed = false;
  if (!request.graph.empty()) {
    auto parsed = GraphDb::FromText(request.graph);
    if (!parsed.ok()) return StatusError(request.id, parsed.status());
    local_graph = std::move(parsed).value();
    graph = &*local_graph;
  } else if (ctx.view.has_graph()) {
    graph = ctx.view.graph.get();
    store_backed = true;
  }
  if (graph == nullptr) {
    return ErrorResponse(request.id, "invalid_request",
                         "no graph: pass a 'graph' field, start the "
                         "server with --graph, or send an update first");
  }

  const std::string& cls = request.cls;
  if (cls != "path" && cls != "crpq" && cls != "rq" && cls != "datalog") {
    return ErrorResponse(request.id, "invalid_request",
                         "unknown eval class '" + cls +
                             "' (path|crpq|rq|datalog)");
  }

  // Store-backed answers are cacheable because the key carries the graph
  // epoch (server/graph_store.h): a mutation publishes a new epoch, so a
  // stale entry can never be looked up again. Inline-graph answers are
  // never cached — their graph is not versioned.
  auto render = [&](const SortedRows& answer) {
    obs::JsonValue response = OkResponse(request.id);
    RenderRows(*graph, answer, request.max_tuples, &response);
    if (store_backed) {
      response.Set("epoch", obs::JsonValue::Number(ctx.view.epoch));
    }
    return response;
  };
  std::string cache_key;
  if (store_backed && ctx.store != nullptr) {
    cache_key = GraphStore::EvalCacheKey(ctx.view.epoch, cls, request.query);
    if (std::shared_ptr<const SortedRows> hit =
            ctx.store->LookupEval(cache_key);
        hit != nullptr) {
      obs::JsonValue response = render(*hit);
      response.Set("cached", obs::JsonValue::Bool(true));
      return response;
    }
  }
  // Caches the sorted answer (full answers only: a deadline or budget trip
  // must surface as an error, never persist a partial answer set).
  auto finish = [&](SortedRows out) {
    if (Status s = CheckExecContext(); !s.ok()) {
      return StatusError(request.id, s);
    }
    if (!cache_key.empty()) {
      return render(*ctx.store->StoreEval(std::move(cache_key),
                                          std::move(out)));
    }
    return render(out);
  };

  if (cls == "path") {
    Alphabet alphabet = graph->alphabet();
    auto q = ParsePathQuery(request.query, &alphabet);
    if (!q.ok()) return StatusError(request.id, q.status());
    std::shared_ptr<const GraphSnapshot> snapshot =
        store_backed ? ctx.view.snapshot : graph->Snapshot();
    std::optional<uint32_t> closure_label = ClosureShapeLabel(*q->regex);
    if (store_backed && closure_label.has_value()) {
      // Closure-shaped (`a+`) queries are served from the sorted image of
      // the incrementally maintained per-label closure when the label is
      // live — the answer update batches kept warm from deltas instead of
      // re-running the product BFS (relational/incremental.h).
      if (const SortedRows* closure = ctx.view.Closure(*closure_label);
          closure != nullptr) {
        obs::IncrCounters::Get().closure_evals.Increment();
        if (obs::QueryProfile* profile = obs::CurrentProfile()) {
          profile->AddNote("eval_path", "incremental-closure");
        }
        obs::JsonValue response = render(*closure);
        response.Set("incremental", obs::JsonValue::Bool(true));
        return response;
      }
    }
    std::vector<std::pair<NodeId, NodeId>> pairs =
        EvalPathQuery(*snapshot, *q->regex);
    // Path evaluation reports deadline/budget truncation through the
    // installed context, not a Status return — surface it rather than
    // answering with a silently partial set (and never seed or cache a
    // partial closure).
    if (Status s = CheckExecContext(); !s.ok()) {
      return StatusError(request.id, s);
    }
    // Product-BFS returns its pairs sorted and duplicate-free: they are
    // the stored rows as they stand.
    SortedRows out;
    out.arity = 2;
    out.rows = pairs.size();
    out.values.reserve(2 * pairs.size());
    for (const auto& [x, y] : pairs) {
      out.values.push_back(x);
      out.values.push_back(y);
    }
    if (store_backed && closure_label.has_value() && ctx.store != nullptr) {
      // First closure-shaped eval of this label: promote it to
      // incrementally maintained, seeding from this full product-BFS
      // answer (= the transitive closure of the label's edge relation).
      // This is the one path answer that becomes a Relation.
      Relation base(2);
      for (const auto& [x, y] :
           snapshot->SymbolPairs(ForwardSymbolOf(*closure_label))) {
        base.Insert({x, y});
      }
      Relation closure(2);
      closure.Reserve(pairs.size());
      for (const auto& [x, y] : pairs) closure.Insert({x, y});
      ctx.store->SeedClosure(ctx.view, *closure_label, std::move(base),
                             std::move(closure));
    }
    return finish(std::move(out));
  }
  if (cls == "crpq") {
    Alphabet alphabet = graph->alphabet();
    auto q = ParseUc2Rpq(request.query, &alphabet);
    if (!q.ok()) return StatusError(request.id, q.status());
    auto out = store_backed ? EvalUc2Rpq(*ctx.view.snapshot, *q)
                            : EvalUc2Rpq(*graph, *q);
    if (!out.ok()) return StatusError(request.id, out.status());
    return finish(SortRows(*out));
  }
  // rq / datalog evaluate over the relational image; a pinned view builds
  // its image here on the epoch's first such eval.
  std::optional<Database> local_db;
  const Database* database = store_backed ? &*ctx.view.database : nullptr;
  if (database == nullptr) {
    local_db = GraphToDatabase(*graph);
    database = &*local_db;
  }
  Result<Relation> out = [&]() -> Result<Relation> {
    if (cls == "rq") {
      auto q = ParseRq(request.query);
      if (!q.ok()) return q.status();
      return EvalRqQuery(*database, *q);
    }
    auto q = ParseDatalog(request.query);
    if (!q.ok()) return q.status();
    return EvalDatalogGoal(*q, *database);
  }();
  if (!out.ok()) return StatusError(request.id, out.status());
  return finish(SortRows(*out));
}

obs::JsonValue HandleSleep(const Request& request, const HandlerContext& ctx) {
  if (!ctx.enable_sleep) {
    return ErrorResponse(request.id, "invalid_request",
                         "sleep requests are disabled (rqserved "
                         "--enable-sleep)");
  }
  // Hold the worker for sleep_ms in short slices, polling the installed
  // contexts so per-request deadlines and budgets still fire.
  int64_t remaining_ms = request.sleep_ms;
  while (remaining_ms > 0) {
    if (Status s = CheckExecContext(); !s.ok()) {
      return StatusError(request.id, s);
    }
    int64_t slice_ms = std::min<int64_t>(remaining_ms, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice_ms));
    remaining_ms -= slice_ms;
  }
  obs::JsonValue response = OkResponse(request.id);
  response.Set("slept_ms", obs::JsonValue::Number(request.sleep_ms));
  return response;
}

}  // namespace

obs::JsonValue ExecuteRequest(const Request& request,
                              const HandlerContext& ctx) {
  switch (request.type) {
    case RequestType::kContainment:
      return HandleContainment(request, ctx);
    case RequestType::kEquivalence:
      return HandleEquivalence(request, ctx);
    case RequestType::kEval:
      return HandleEval(request, ctx);
    case RequestType::kStats: {
      obs::JsonValue response = OkResponse(request.id);
      response.Set("stats", obs::SnapshotJson());
      return response;
    }
    case RequestType::kSleep:
      return HandleSleep(request, ctx);
    case RequestType::kHealth:
    case RequestType::kUpdate:
      break;  // answered inline by the server's reader thread
  }
  return ErrorResponse(request.id, "internal",
                       std::string("request type '") +
                           RequestTypeName(request.type) +
                           "' reached the worker pool");
}

}  // namespace server
}  // namespace rq
