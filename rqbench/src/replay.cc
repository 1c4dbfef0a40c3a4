#include "replay.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "cache/automata_cache.h"
#include "containment/batch.h"
#include "crpq/crpq.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "pathquery/path_query.h"
#include "regex/regex.h"
#include "relational/cq.h"
#include "relational/incremental.h"
#include "rq/containment.h"
#include "rq/equivalence.h"
#include "rq/eval.h"
#include "rq/parser.h"
#include "server/graph_store.h"
#include "server/handlers.h"
#include "server/protocol.h"

namespace rqbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One step of a replay schedule: a read (index into `reads`) or a write
// batch (index into `writes`), with the request id its spans carry.
struct ReplayStep {
  bool write = false;
  uint32_t index = 0;
  uint64_t id = 0;
};

// The requests and schedule one replay runs over.
struct Schedule {
  std::vector<BenchRequest> reads;
  std::vector<BenchRequest> writes;
  std::vector<ReplayStep> steps;
};

Schedule MakeSchedule(const Stream& stream, const ReplayOptions& options) {
  Schedule s{stream.reads, stream.writes, {}};
  uint64_t id = 0;
  for (uint32_t i : stream.warmup_order) s.steps.push_back({false, i, id++});
  if (stream.workload == Workload::kMixedRw) {
    uint32_t next = 0;
    for (uint32_t b = 0; b < stream.writes.size(); ++b) {
      s.steps.push_back({true, b, id++});
      for (size_t r = 0; r < stream.replay_reads_per_batch; ++r) {
        s.steps.push_back(
            {false, next++ % static_cast<uint32_t>(s.reads.size()), id++});
      }
    }
    return s;
  }
  size_t n = std::min(stream.read_order.size(), options.max_reads);
  for (size_t i = 0; i < n; ++i) {
    s.steps.push_back({false, stream.read_order[i], id++});
  }
  // As in the untraced run, a knows+ read seeds the closure the write
  // phase maintains.
  BenchRequest seed;
  seed.type = "eval";
  seed.cls = "path";
  seed.query = "knows+";
  seed.max_tuples = 16;
  s.reads.push_back(std::move(seed));
  s.steps.push_back(
      {false, static_cast<uint32_t>(s.reads.size() - 1), id++});
  for (uint32_t b = 0; b < stream.writes.size(); ++b) {
    s.steps.push_back({true, b, id++});
  }
  return s;
}

// Runs `f` inside a span named `name` and returns what it returns.
template <typename F>
auto Timed(SpanRecorder* rec, const char* name, F&& f) {
  SpanRecorder::Scope span(rec, name);
  return f();
}

// Parses both query texts of a check inside one regex.parse span (braced
// initialisation keeps q1 before q2, so symbols intern in a fixed order).
template <typename Parse>
auto ParseBoth(SpanRecorder* rec, const BenchRequest& req, Parse parse) {
  return Timed(rec, "regex.parse", [&] {
    return std::pair<decltype(parse(req.q1)), decltype(parse(req.q2))>{
        parse(req.q1), parse(req.q2)};
  });
}

// Pass A, the server's request path: ParseRequest, ExecuteRequest over a
// GraphStore (GraphStore::Apply for updates), JsonValue::Dump. Returns,
// per step, whether an eval was computed rather than served from the eval
// cache or the maintained closure.
rq::Result<std::vector<bool>> ServerPass(const Schedule& schedule,
                                         const rq::GraphDb& graph,
                                         SpanRecorder* rec,
                                         uint64_t* response_bytes) {
  rq::cache::AutomataCache::Global().Clear();
  rq::server::GraphStore store;
  store.Load(graph);
  std::vector<bool> computed(schedule.steps.size(), false);
  for (size_t i = 0; i < schedule.steps.size(); ++i) {
    const ReplayStep& step = schedule.steps[i];
    const BenchRequest& req = step.write ? schedule.writes[step.index]
                                         : schedule.reads[step.index];
    std::string frame = req.Frame();
    rec->BeginRequest(step.id);
    SpanRecorder::Scope root(rec, "request");
    RQ_ASSIGN_OR_RETURN(rq::server::Request decoded,
                        Timed(rec, "server.decode", [&] {
                          return rq::server::ParseRequest(frame);
                        }));
    rq::obs::JsonValue response;
    if (step.write) {
      RQ_ASSIGN_OR_RETURN(
          rq::server::GraphStore::UpdateResult applied,
          Timed(rec, "server.apply", [&] { return store.Apply(decoded.ops); }));
      response = rq::server::OkResponse(decoded.id);
      response.Set("epoch", rq::obs::JsonValue::Number(applied.epoch));
      response.Set("edges_added",
                   rq::obs::JsonValue::Number(
                       static_cast<uint64_t>(applied.edges_added)));
    } else {
      rq::server::HandlerContext ctx;
      ctx.view = store.Acquire();
      ctx.store = &store;
      response = Timed(rec, "server.execute", [&] {
        return rq::server::ExecuteRequest(decoded, ctx);
      });
      const rq::obs::JsonValue* ok = response.Find("ok");
      if (ok == nullptr || !ok->bool_value()) {
        return rq::InternalError("replayed request failed: " +
                                 response.Dump());
      }
      computed[i] = req.type == "eval" && response.Find("cached") == nullptr &&
                    response.Find("incremental") == nullptr;
    }
    *response_bytes +=
        Timed(rec, "server.encode", [&] { return response.Dump(); }).size();
  }
  return computed;
}

std::optional<uint32_t> KnowsLabel(const rq::GraphDb& graph) {
  auto label = graph.alphabet().FindLabel("knows");
  if (!label.ok()) return std::nullopt;
  return *label;
}

// Pass B for one eval that pass A computed: parse, evaluate and sort with
// each layer's own call. A `knows+` answer also seeds the maintained
// closure, as the handler does.
rq::Status EvalLayers(const BenchRequest& req, rq::server::GraphStore* store,
                      rq::PerLabelClosure* shadow, SpanRecorder* rec) {
  rq::server::GraphView view = store->Acquire();
  rq::Alphabet alphabet = view.graph->alphabet();
  rq::Relation out(2);
  if (req.cls == "path") {
    RQ_ASSIGN_OR_RETURN(rq::PathQuery q, Timed(rec, "regex.parse", [&] {
                          return rq::ParsePathQuery(req.query, &alphabet);
                        }));
    Timed(rec, "pathquery.eval", [&] {
      for (const auto& [x, y] : rq::EvalPathQuery(*view.snapshot, *q.regex)) {
        out.Insert({x, y});
      }
    });
    if (req.query == "knows+") {
      std::optional<uint32_t> knows = KnowsLabel(*view.graph);
      RQ_CHECK(knows.has_value());
      rq::Relation base(2);
      for (const auto& [x, y] :
           view.snapshot->SymbolPairs(rq::ForwardSymbolOf(*knows))) {
        base.Insert({x, y});
      }
      rq::Relation closure(2);
      closure.InsertAll(out);
      store->SeedClosure(view, *knows, base, closure);
      shadow->Seed(*knows, std::move(base), std::move(closure));
    }
  } else if (req.cls == "crpq") {
    RQ_ASSIGN_OR_RETURN(rq::Uc2Rpq q, Timed(rec, "regex.parse", [&] {
                          return rq::ParseUc2Rpq(req.query, &alphabet);
                        }));
    RQ_ASSIGN_OR_RETURN(out, Timed(rec, "crpq.eval", [&] {
                          return rq::EvalUc2Rpq(*view.snapshot, q);
                        }));
  } else if (req.cls == "rq") {
    RQ_ASSIGN_OR_RETURN(rq::RqQuery q, Timed(rec, "regex.parse", [&] {
                          return rq::ParseRq(req.query);
                        }));
    RQ_ASSIGN_OR_RETURN(out, Timed(rec, "rq.eval", [&] {
                          return rq::EvalRqQuery(*view.database, q);
                        }));
  } else {
    RQ_ASSIGN_OR_RETURN(rq::DatalogProgram q, Timed(rec, "regex.parse", [&] {
                          return rq::ParseDatalog(req.query);
                        }));
    RQ_ASSIGN_OR_RETURN(out, Timed(rec, "datalog.eval", [&] {
                          return rq::EvalDatalogGoal(q, *view.database);
                        }));
  }
  size_t sorted =
      Timed(rec, "relational.sort", [&] { return out.SortedTuples().size(); });
  if (sorted != out.size()) return rq::InternalError("sort lost tuples");
  return rq::Status::Ok();
}

// Pass B for one containment or equivalence request, timed per class.
rq::Status CheckLayers(const BenchRequest& req, rq::Alphabet alphabet,
                       SpanRecorder* rec) {
  if (req.cls == "rpq" || req.cls == "2rpq") {
    auto [p1, p2] = ParseBoth(rec, req, [&](const std::string& text) {
      return rq::ParseRegex(text, &alphabet);
    });
    RQ_ASSIGN_OR_RETURN(rq::RegexPtr r1, std::move(p1));
    RQ_ASSIGN_OR_RETURN(rq::RegexPtr r2, std::move(p2));
    std::vector<rq::PathContainmentJob> jobs = {{r1.get(), r2.get()}};
    if (req.type == "equivalence") jobs.push_back({r2.get(), r1.get()});
    return Timed(rec,
                 req.cls == "rpq" ? "containment.check.rpq"
                                  : "containment.check.2rpq",
                 [&] {
                   for (const rq::PathContainmentResult& r :
                        rq::CheckPathContainmentBatch(jobs, alphabet)) {
                     RQ_RETURN_IF_ERROR(r.status);
                   }
                   return rq::Status::Ok();
                 });
  }
  if (req.cls == "cq" || req.cls == "ucq") {
    auto [p1, p2] = ParseBoth(rec, req, [](const std::string& text) {
      return rq::ParseUcq(text);
    });
    RQ_ASSIGN_OR_RETURN(rq::UnionOfConjunctiveQueries q1, std::move(p1));
    RQ_ASSIGN_OR_RETURN(rq::UnionOfConjunctiveQueries q2, std::move(p2));
    return Timed(rec, "containment.check.cq",
                 [&] { return rq::UcqContained(q1, q2).status(); });
  }
  if (req.cls == "uc2rpq") {
    auto [p1, p2] = ParseBoth(rec, req, [&](const std::string& text) {
      return rq::ParseUc2Rpq(text, &alphabet);
    });
    RQ_ASSIGN_OR_RETURN(rq::Uc2Rpq q1, std::move(p1));
    RQ_ASSIGN_OR_RETURN(rq::Uc2Rpq q2, std::move(p2));
    return Timed(rec, "containment.check.uc2rpq", [&] {
      return rq::CheckUc2RpqContainment(q1, q2, alphabet).status();
    });
  }
  auto [p1, p2] = ParseBoth(rec, req, [](const std::string& text) {
    return rq::ParseRq(text);
  });
  RQ_ASSIGN_OR_RETURN(rq::RqQuery q1, std::move(p1));
  RQ_ASSIGN_OR_RETURN(rq::RqQuery q2, std::move(p2));
  return Timed(rec, "containment.check.rq", [&] {
    return req.type == "equivalence"
               ? rq::CheckRqEquivalence(q1, q2).status()
               : rq::CheckRqContainment(q1, q2).status();
  });
}

// Pass B: the same schedule with each layer called directly, on a fresh
// store and a cleared automata cache so every call sees the state pass A
// saw. Evals run only where pass A computed them.
rq::Status LayerPass(const Schedule& schedule, const rq::GraphDb& graph,
                     const std::vector<bool>& computed, SpanRecorder* rec) {
  rq::cache::AutomataCache::Global().Clear();
  rq::server::GraphStore store;
  store.Load(graph);
  // A shadow of the store's knows closure, maintained batch by batch the
  // way GraphStore::Apply maintains its own.
  rq::PerLabelClosure shadow;
  for (size_t i = 0; i < schedule.steps.size(); ++i) {
    const ReplayStep& step = schedule.steps[i];
    rec->BeginRequest(step.id);
    SpanRecorder::Scope root(rec, "layers");
    if (!step.write) {
      const BenchRequest& req = schedule.reads[step.index];
      if (req.type != "eval") {
        RQ_RETURN_IF_ERROR(
            CheckLayers(req, store.Acquire().graph->alphabet(), rec));
      } else if (computed[i]) {
        RQ_RETURN_IF_ERROR(EvalLayers(req, &store, &shadow, rec));
      }
      continue;
    }
    const BenchRequest& batch = schedule.writes[step.index];
    std::vector<rq::server::UpdateOp> ops;
    for (const EdgeOp& e : batch.ops) {
      rq::server::UpdateOp op;
      op.kind = rq::server::UpdateOp::Kind::kAddEdge;
      op.src = e.src;
      op.label = e.label;
      op.dst = e.dst;
      ops.push_back(std::move(op));
    }
    RQ_RETURN_IF_ERROR(store.Apply(ops).status());
    rq::server::GraphView view = store.Acquire();
    for (const EdgeOp& e : batch.ops) {
      RQ_ASSIGN_OR_RETURN(rq::NodeId src, view.graph->FindNode(e.src));
      RQ_ASSIGN_OR_RETURN(rq::NodeId dst, view.graph->FindNode(e.dst));
      RQ_ASSIGN_OR_RETURN(uint32_t label,
                          view.graph->alphabet().FindLabel(e.label));
      RQ_RETURN_IF_ERROR(Timed(rec, "relational.incr_add_edge", [&] {
                           return shadow.AddEdge(label, src, dst);
                         }).status());
    }
    std::optional<uint32_t> knows = KnowsLabel(*view.graph);
    const rq::Relation* closure =
        knows.has_value() ? shadow.closure(*knows) : nullptr;
    if (closure != nullptr) {
      size_t copied = Timed(rec, "relational.closure_copy",
                            [&] { return rq::Relation(*closure).size(); });
      if (copied != closure->size()) {
        return rq::InternalError("closure copy lost tuples");
      }
    }
  }
  return rq::Status::Ok();
}

struct LayerTotals {
  int64_t self_ns = 0;
  int64_t calls = 0;
};

// Span name -> totals.
std::map<std::string, LayerTotals> Aggregate(const SpanRecorder& rec) {
  std::map<std::string, LayerTotals> out;
  std::vector<int64_t> self = rec.SelfTimes();
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    LayerTotals& t = out[s.name];
    t.self_ns += self[i];
    t.calls += 1;
  }
  return out;
}

rq::Status WriteTrace(const SpanRecorder& rec, const std::string& path) {
  std::ofstream out(path);
  std::vector<int64_t> self = rec.SelfTimes();
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    out << "{\"req\":" << s.request << ",\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << (s.end_ns - s.start_ns)
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  if (!out) return rq::InternalError("cannot write " + path);
  return rq::Status::Ok();
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (!recorder_->enabled_) return;
  Span span;
  span.request = recorder_->request_;
  span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  span.name = name;
  index_ = static_cast<int32_t>(recorder_->spans_.size());
  recorder_->spans_.push_back(span);
  recorder_->open_.push_back(index_);
  recorder_->spans_[index_].start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  recorder_->spans_[index_].end_ns = NowNs();
  recorder_->open_.pop_back();
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one parent never overlap (the replay is single-threaded),
  // so the covered part is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

rq::Result<Metrics> TracedReplay(const Stream& stream,
                                 const ReplayOptions& options) {
  SpanRecorder rec(true);
  Metrics m;
  // Set-up layers, timed several times each.
  std::optional<rq::Result<rq::GraphDb>> graph;
  for (int i = 0; i < 5; ++i) {
    rec.BeginRequest(0);
    {
      SpanRecorder::Scope s(&rec, "graph.parse");
      graph.emplace(LoadGraph(stream));
    }
    if (!graph->ok()) return graph->status();
    rq::server::GraphStore store;
    SpanRecorder::Scope s(&rec, "server.load");
    store.Load(**graph);
  }

  Schedule schedule = MakeSchedule(stream, options);
  // The replay without and with spans, twice each, in the order off, on,
  // on, off so neither kind always runs first. The tracing overhead
  // compares the faster pass of each kind, since other guests of a shared
  // host moved single passes by up to 20%.
  SpanRecorder off(false);
  uint64_t bytes = 0;
  uint64_t plain_bytes = 0;
  int64_t plain_ns = std::numeric_limits<int64_t>::max();
  int64_t traced_ns = std::numeric_limits<int64_t>::max();
  for (SpanRecorder* r : {&off, &rec, &rec, &off}) {
    int64_t start = NowNs();
    RQ_ASSIGN_OR_RETURN(
        std::vector<bool> computed,
        ServerPass(schedule, **graph, r, r == &rec ? &bytes : &plain_bytes));
    RQ_RETURN_IF_ERROR(LayerPass(schedule, **graph, computed, r));
    int64_t& fastest = r == &rec ? traced_ns : plain_ns;
    fastest = std::min(fastest, NowNs() - start);
  }
  if (!options.trace_file.empty()) {
    RQ_RETURN_IF_ERROR(WriteTrace(rec, options.trace_file));
  }

  std::map<std::string, LayerTotals> totals = Aggregate(rec);
  // Mean self time per call of every span whose name is `prefix` or starts
  // with `prefix` and a dot.
  auto layer = [&](const std::string& metric, const std::string& prefix,
                   double ns_per_unit, const char* unit) {
    LayerTotals sum;
    for (const auto& [name, t] : totals) {
      if (name.rfind(prefix, 0) == 0 &&
          (name.size() == prefix.size() || name[prefix.size()] == '.')) {
        sum.self_ns += t.self_ns;
        sum.calls += t.calls;
      }
    }
    m[metric] = {sum.calls > 0 ? static_cast<double>(sum.self_ns) /
                                     ns_per_unit /
                                     static_cast<double>(sum.calls)
                               : 0,
                 unit, static_cast<uint64_t>(sum.calls)};
  };
  layer("graph.parse_ms", "graph.parse", 1e6, "ms");
  layer("server.load_ms", "server.load", 1e6, "ms");
  layer("server.decode_us", "server.decode", 1e3, "us");
  layer("server.execute_ms", "server.execute", 1e6, "ms");
  layer("server.encode_us", "server.encode", 1e3, "us");
  layer("server.apply_ms", "server.apply", 1e6, "ms");
  layer("relational.incr_add_edge_us", "relational.incr_add_edge", 1e3, "us");
  layer("relational.closure_copy_ms", "relational.closure_copy", 1e6, "ms");
  layer("relational.sort_ms", "relational.sort", 1e6, "ms");
  layer("regex.parse_us", "regex.parse", 1e3, "us");
  layer("pathquery.eval_ms", "pathquery.eval", 1e6, "ms");
  layer("crpq.eval_ms", "crpq.eval", 1e6, "ms");
  layer("rq.eval_ms", "rq.eval", 1e6, "ms");
  layer("datalog.eval_ms", "datalog.eval", 1e6, "ms");
  layer("containment.check_us", "containment.check", 1e3, "us");
  for (const char* cls : {"rpq", "2rpq", "cq", "uc2rpq", "rq"}) {
    layer(std::string("containment.check_us.") + cls,
          std::string("containment.check.") + cls, 1e3, "us");
  }
  int64_t encodes = totals["server.encode"].calls;
  m["server.response_bytes"] = {
      encodes > 0 ? static_cast<double>(bytes) / static_cast<double>(encodes)
                  : 0,
      "bytes", static_cast<uint64_t>(encodes)};
  m["obs.trace_overhead_pct"] = {
      100.0 * static_cast<double>(traced_ns - plain_ns) /
          static_cast<double>(plain_ns),
      "%", 2};

  // How much of execute time the eval layers account for, as totals over
  // the stream.
  int64_t execute_ns = totals["server.execute"].self_ns;
  int64_t eval_ns = 0;
  for (const char* name : {"pathquery.eval", "crpq.eval", "rq.eval",
                           "datalog.eval", "relational.sort"}) {
    eval_ns += totals[name].self_ns;
  }
  m["server.execute_eval_share"] = {
      execute_ns > 0
          ? static_cast<double>(eval_ns) / static_cast<double>(execute_ns)
          : 0,
      "ratio", 1};
  return m;
}

}  // namespace rqbench
