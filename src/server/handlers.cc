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
#include "obs/profile.h"
#include "obs/subsystems.h"
#include "query/query.h"

namespace rq {
namespace server {

namespace {

obs::JsonValue StatusError(const obs::JsonValue& id, const Status& status) {
  return ErrorResponse(id, ErrorCodeForStatus(status), status.message());
}

// Sets one containment verdict's fields on `out`. rpq/2rpq verdicts say
// `contained` and name their `pipeline`; the other classes say `verdict`
// and `method`, and uc2rpq adds `truncated`. A refutation adds its
// counterexample as `counterexample_word`, `_graph` or `_database`.
void SetVerdictFields(const Verdict& verdict, bool path,
                      obs::JsonValue* out) {
  if (path) {
    out->Set("contained",
             obs::JsonValue::Bool(verdict.certainty == Certainty::kProved));
    out->Set("pipeline", obs::JsonValue::String(verdict.method));
  } else {
    out->Set("verdict",
             obs::JsonValue::String(CertaintyName(verdict.certainty)));
    out->Set("method", obs::JsonValue::String(verdict.method));
  }
  if (verdict.truncated.has_value()) {
    out->Set("truncated", obs::JsonValue::Bool(*verdict.truncated));
  }
  if (!verdict.counterexample.kind.empty()) {
    out->Set("counterexample_" + verdict.counterexample.kind,
             obs::JsonValue::String(verdict.counterexample.text));
  }
}

// Containment and equivalence: one front-door call and its rendering. An
// equivalence renders each direction as a containment verdict.
obs::JsonValue HandleCheck(const Request& request) {
  const bool containment = request.type == RequestType::kContainment;
  Result<Verdict> verdict =
      containment ? CheckContainment(request.cls, request.q1, request.q2)
                  : CheckEquivalence(request.cls, request.q1, request.q2);
  if (!verdict.ok()) return StatusError(request.id, verdict.status());
  const bool path = IsPathClass(request.cls);
  obs::JsonValue response = OkResponse(request.id);
  if (containment) {
    // Path verdicts lead with the certainty the other classes set below.
    if (path) {
      response.Set("verdict",
                   obs::JsonValue::String(CertaintyName(verdict->certainty)));
    }
    SetVerdictFields(*verdict, path, &response);
    return response;
  }
  response.Set("verdict",
               obs::JsonValue::String(EquivalenceName(verdict->certainty)));
  const char* names[] = {"forward", "backward"};
  for (size_t i = 0; i < verdict->directions.size(); ++i) {
    obs::JsonValue direction = obs::JsonValue::Object();
    SetVerdictFields(verdict->directions[i], path, &direction);
    response.Set(names[i], std::move(direction));
  }
  return response;
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
  // An inline graph is parsed per request; otherwise the request evaluates
  // against its pinned view, one immutable graph version for the
  // request's whole lifetime, shared read-only across workers.
  std::optional<EvalTarget> inline_target;
  const EvalTarget* target = nullptr;
  if (!request.graph.empty()) {
    auto parsed = GraphDb::FromText(request.graph);
    if (!parsed.ok()) return StatusError(request.id, parsed.status());
    target = &inline_target.emplace(
        std::make_shared<const GraphDb>(std::move(parsed).value()));
  } else if (ctx.view.has_graph()) {
    target = &ctx.view;
  }
  if (target == nullptr) {
    return ErrorResponse(request.id, "invalid_request",
                         "no graph: pass a 'graph' field, start the "
                         "server with --graph, or send an update first");
  }
  const bool store_backed = target == &ctx.view;

  // Store-backed answers are cacheable because the key carries the graph
  // epoch (server/graph_store.h): a mutation publishes a new epoch, so a
  // stale entry can never be looked up again. Inline-graph answers are
  // never cached — their graph is not versioned.
  auto render = [&](const SortedRows& answer) {
    obs::JsonValue response = OkResponse(request.id);
    RenderRows(*target->graph, answer, request.max_tuples, &response);
    if (store_backed) {
      response.Set("epoch", obs::JsonValue::Number(ctx.view.epoch));
    }
    return response;
  };
  std::string cache_key;
  if (store_backed && ctx.store != nullptr) {
    cache_key =
        GraphStore::EvalCacheKey(ctx.view.epoch, request.cls, request.query);
    if (std::shared_ptr<const SortedRows> hit =
            ctx.store->LookupEval(cache_key);
        hit != nullptr) {
      obs::JsonValue response = render(*hit);
      response.Set("cached", obs::JsonValue::Bool(true));
      return response;
    }
  }

  Result<ParsedQuery> query =
      ParseQuery(request.cls, request.query, target->graph->alphabet());
  if (!query.ok()) return StatusError(request.id, query.status());
  std::optional<uint32_t> closure_label;
  if (const PathQuery* path = std::get_if<PathQuery>(&*query);
      path != nullptr && store_backed) {
    closure_label = ClosureShapeLabel(*path->regex);
  }
  if (closure_label.has_value()) {
    // Closure-shaped (`a+`) queries are served from the sorted image of
    // the incrementally maintained per-label closure when the label is
    // live — the answer update batches kept warm from deltas instead of
    // re-running the product BFS (relational/incremental.h).
    if (const SortedRows* closure = ctx.view.Closure(*closure_label);
        closure != nullptr) {
      obs::IncrCounters::Get().closure_evals.Increment();
      if (obs::QueryProfile* profile = obs::CurrentProfile()) {
        profile->AddNote("eval.route", "incremental-closure");
      }
      obs::JsonValue response = render(*closure);
      response.Set("incremental", obs::JsonValue::Bool(true));
      return response;
    }
  }

  Result<SortedRows> answer = Evaluate(*query, *target);
  if (!answer.ok()) return StatusError(request.id, answer.status());
  if (closure_label.has_value() && ctx.store != nullptr) {
    // First closure-shaped eval of this label: promote it to
    // incrementally maintained, seeding from this full product-BFS
    // answer (= the transitive closure of the label's edge relation).
    // This is the one path answer that becomes a Relation.
    Relation base(2);
    for (const auto& [x, y] :
         ctx.view.snapshot->SymbolPairs(ForwardSymbolOf(*closure_label))) {
      base.Insert({x, y});
    }
    Relation closure(2);
    closure.Reserve(answer->size());
    for (size_t i = 0; i < answer->size(); ++i) {
      closure.Insert(Row(answer->row(i), 2));
    }
    ctx.store->SeedClosure(ctx.view, *closure_label, std::move(base),
                           std::move(closure));
  }
  // Caches the sorted answer (full answers only: a deadline or budget trip
  // must surface as an error, never persist a partial answer set).
  if (Status s = CheckExecContext(); !s.ok()) {
    return StatusError(request.id, s);
  }
  if (!cache_key.empty()) {
    return render(*ctx.store->StoreEval(std::move(cache_key),
                                        std::move(answer).value()));
  }
  return render(*answer);
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
    case RequestType::kEquivalence:
      return HandleCheck(request);
    case RequestType::kEval:
      return HandleEval(request, ctx);
    case RequestType::kSleep:
      return HandleSleep(request, ctx);
    case RequestType::kStats:
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
